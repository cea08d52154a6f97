// Columnar-page microbench: the SoA ColumnarBlock against the row
// (StreamElement-vector) page layout on the primitives the layouts
// differ on — result construction (AddRow+Set per attribute vs arena
// tuple + element push), filtering (selection-vector index edit vs
// in-place compaction) across a keep-rate sweep, the compiled-pattern
// purge (hoisted all-int64 column loop vs per-tuple Matches), and the
// row-materialization bridge (EnsureRowLayout). Records
// columnar.* rows into BENCH_hotpath.json. Operators stage only
// columnar pages; the row side is the frozen reference.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "punct/compiled_pattern.h"
#include "punct/punct_pattern.h"
#include "stream/columnar.h"
#include "stream/page.h"
#include "types/tuple.h"
#include "types/value.h"

namespace nstream {
namespace {

// The Table 2 join output shape: 4 int64 attributes.
constexpr uint32_t kCols = 4;

// Build one columnar page of n rows (the join/project emit path:
// AddRow + one Set per attribute).
Page BuildColumnarPage(int n) {
  Page page;
  ColumnarBlock* b =
      page.BeginColumnar(kCols, static_cast<uint32_t>(n));
  for (int i = 0; i < n; ++i) {
    uint32_t r = b->AddRow(i, i);
    b->Set(0, r, Value::Int64(i % 100));
    b->Set(1, r, Value::Timestamp(i));
    b->Set(2, r, Value::Int64(i % 7));
    b->Set(3, r, Value::Int64(i));
  }
  return page;
}

// Build one row page of n tuples (the pre-columnar emit path: arena
// tuple, one Append per attribute, element push).
Page BuildRowPage(int n) {
  Page page;
  page.Reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tuple t(page.arena(), static_cast<int>(kCols));
    t.Append(Value::Int64(i % 100));
    t.Append(Value::Timestamp(i));
    t.Append(Value::Int64(i % 7));
    t.Append(Value::Int64(i));
    t.set_id(i);
    page.Add(StreamElement::OfTuple(std::move(t)));
  }
  return page;
}

/// Best-of-3 ns/op (same methodology as the other hot-path benches:
/// the attainable cost, not the scheduler's mood).
template <typename Fn>
double MeasureNsPerOp(double ops_per_call, Fn&& body) {
  double best = 0;
  for (int i = 0; i < 3; ++i) {
    best = std::max(best,
                    benchjson::MeasurePerSec(ops_per_call, 60.0, body));
  }
  return 1e9 / best;
}

// Filter predicate with an exact keep rate in [0,1]: keep when
// (row * 7919) % 1000 < keep_permille — cheap, branch-predictable
// enough to not dominate, identical across layouts.
inline bool KeepRow(int64_t row, int keep_permille) {
  return (row * 7919) % 1000 < keep_permille;
}

void RecordJson() {
  const int kN = 4096;  // a large page / small page burst
  std::map<std::string, double> metrics;

  // ---- Result construction (the emit path) ----
  double col_emit = MeasureNsPerOp(kN, [&] {
    Page p = BuildColumnarPage(kN);
    benchmark::DoNotOptimize(p.size());
  });
  double row_emit = MeasureNsPerOp(kN, [&] {
    Page p = BuildRowPage(kN);
    benchmark::DoNotOptimize(p.size());
  });
  std::printf("columnar emit %.2f ns/tuple  row emit %.2f ns/tuple  (%.2fx)\n",
              col_emit, row_emit, row_emit / col_emit);
  metrics["columnar.emit_ns_per_tuple"] = col_emit;
  metrics["columnar.row_emit_ns_per_tuple"] = row_emit;
  metrics["columnar.emit_speedup"] = row_emit / col_emit;

  // ---- Filter: selection vector vs compaction, keep-rate sweep ----
  // Both arms build the page and filter it (the build is the emit
  // cost above; the difference between the arms at equal keep rate is
  // the filtering discipline). Row compaction mirrors
  // Operator::FilterPageInPlace: survivors shift down, vector
  // truncates. Selection-vector filtering writes surviving indices
  // and never touches the columns.
  const int kKeeps[] = {100, 500, 900, 990};  // permille
  for (int keep : kKeeps) {
    double col = MeasureNsPerOp(kN, [&] {
      Page p = BuildColumnarPage(kN);
      ColumnarBlock* b = p.columnar();
      b->KeepIf([&](uint32_t r) {
        return KeepRow(b->column(3)[r].unchecked_int64(), keep);
      });
      benchmark::DoNotOptimize(p.size());
    });
    double row = MeasureNsPerOp(kN, [&] {
      Page p = BuildRowPage(kN);
      std::vector<StreamElement>& elems = p.mutable_elements();
      size_t kept = 0;
      for (size_t i = 0; i < elems.size(); ++i) {
        if (!KeepRow(elems[i].tuple().value(3).unchecked_int64(),
                     keep)) {
          continue;
        }
        if (kept != i) elems[kept] = std::move(elems[i]);
        ++kept;
      }
      elems.resize(kept);
      benchmark::DoNotOptimize(p.size());
    });
    std::string tag = "keep" + std::to_string(keep);
    std::printf("filter %s: selvec %.2f  compact %.2f ns/tuple (%.2fx)\n",
                tag.c_str(), col, row, row / col);
    metrics["columnar.filter_" + tag + "_selvec_ns"] = col;
    metrics["columnar.filter_" + tag + "_compact_ns"] = row;
    metrics["columnar.filter_" + tag + "_speedup"] = row / col;
  }

  // ---- Compiled-pattern purge: hoisted int64 columns vs row walk ----
  // The dominant feedback exploit (timestamp-range purge) over both
  // layouts. The columnar path hoists the tag dispatch into one
  // column-class check and runs raw unchecked_int64 compares.
  PunctPattern purge_p = PunctPattern::AllWildcard(4).With(
      1, AttrPattern::Range(Value::Timestamp(kN / 4),
                            Value::Timestamp(3 * kN / 4)));
  CompiledPattern purge(purge_p);
  double col_purge = MeasureNsPerOp(kN, [&] {
    Page p = BuildColumnarPage(kN);
    benchmark::DoNotOptimize(purge.FilterColumnarPurge(p.columnar()));
  });
  double row_purge = MeasureNsPerOp(kN, [&] {
    Page p = BuildRowPage(kN);
    std::vector<StreamElement>& elems = p.mutable_elements();
    size_t kept = 0;
    for (size_t i = 0; i < elems.size(); ++i) {
      if (purge.Matches(elems[i].tuple())) continue;
      if (kept != i) elems[kept] = std::move(elems[i]);
      ++kept;
    }
    elems.resize(kept);
    benchmark::DoNotOptimize(p.size());
  });
  std::printf("purge: columnar %.2f  row %.2f ns/tuple (%.2fx)\n",
              col_purge, row_purge, row_purge / col_purge);
  metrics["columnar.purge_ns_per_tuple"] = col_purge;
  metrics["columnar.row_purge_ns_per_tuple"] = row_purge;
  metrics["columnar.purge_speedup"] = row_purge / col_purge;

  // ---- The materialization bridge ----
  // What a row-requiring boundary pays to consume a columnar page
  // (gather-alias every selected row), on top of the build.
  double materialize = MeasureNsPerOp(kN, [&] {
    Page p = BuildColumnarPage(kN);
    p.EnsureRowLayout();
    benchmark::DoNotOptimize(p.elements().size());
  });
  metrics["columnar.emit_plus_materialize_ns_per_tuple"] = materialize;
  metrics["columnar.online_cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
  benchjson::RecordAll(metrics);
}

// Google-benchmark registrations so the bench-smoke CI job exercises
// the same bodies with its tiny iteration budget.

void BM_ColumnarEmit(benchmark::State& state) {
  for (auto _ : state) {
    Page p = BuildColumnarPage(1024);
    benchmark::DoNotOptimize(p.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ColumnarEmit);

void BM_RowEmit(benchmark::State& state) {
  for (auto _ : state) {
    Page p = BuildRowPage(1024);
    benchmark::DoNotOptimize(p.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RowEmit);

void BM_SelectionVectorFilter(benchmark::State& state) {
  for (auto _ : state) {
    Page p = BuildColumnarPage(1024);
    ColumnarBlock* b = p.columnar();
    b->KeepIf([&](uint32_t r) {
      return KeepRow(b->column(3)[r].unchecked_int64(), 900);
    });
    benchmark::DoNotOptimize(p.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SelectionVectorFilter);

void BM_ColumnarPurge(benchmark::State& state) {
  CompiledPattern purge(PunctPattern::AllWildcard(4).With(
      1, AttrPattern::Range(Value::Timestamp(256),
                            Value::Timestamp(768))));
  for (auto _ : state) {
    Page p = BuildColumnarPage(1024);
    benchmark::DoNotOptimize(purge.FilterColumnarPurge(p.columnar()));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ColumnarPurge);

}  // namespace
}  // namespace nstream

int main(int argc, char** argv) {
  nstream::RecordJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
