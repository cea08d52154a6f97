// Reproduces Table 2: the JOIN characterization. Prints the published
// rows, verifies the SchemaMap-driven propagation decisions against
// §4.2's worked examples (A(a,t,id) ⋈ B(t,id,b)), and measures the
// effect of each response class on a symmetric hash join.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "core/characterization.h"
#include "core/propagation.h"
#include "exec/scheduler.h"
#include "metrics/report.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "punct/pattern_parser.h"
#include "stream/columnar.h"
#include "stream/page.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

// Heap-allocation counting hook: this binary replaces global
// operator new/delete with counting shims (definitions after main's
// namespace), so BENCH_hotpath.json can record allocations per output
// tuple — the arena model's primary claim — rather than inferring
// them from timings. Arena chunks bypass operator new (they are
// mapped); ReserveAllocs counts those.
std::atomic<uint64_t> g_alloc_count{0};

// Allocations that bypass operator new: chunks the reserve could not
// serve from its idle, resident set (carved fresh, or paged back in
// after a release).
uint64_t ReserveAllocs() {
  const ChunkReserveStats s = GetChunkReserveStats();
  return s.carved + s.retaken;
}

SchemaPtr LeftSchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"t", ValueType::kInt64},
                       {"id", ValueType::kInt64}});
}
SchemaPtr RightSchema() {
  return Schema::Make({{"t", ValueType::kInt64},
                       {"id", ValueType::kInt64},
                       {"b", ValueType::kInt64}});
}

// burst = how many consecutive tuples share a key pair (1 = the
// classic Table 2 stream where adjacent keys always differ; >1 models
// bursty sources — per-segment sensor batches — the adjacency-grouped
// probe targets).
std::vector<TimedElement> SideStream(int n, bool left, int key_mod,
                                     int burst = 1) {
  std::vector<TimedElement> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TimeMs at = static_cast<TimeMs>(i);
    int k = i / burst;
    if (left) {
      out.push_back(TimedElement::OfTuple(
          at, TupleBuilder()
                  .I64(i % 100)
                  .I64(k % key_mod)
                  .I64(k % 7)
                  .Build()));
    } else {
      out.push_back(TimedElement::OfTuple(
          at, TupleBuilder()
                  .I64(k % key_mod)
                  .I64(k % 7)
                  .I64(i % 100)
                  .Build()));
    }
  }
  return out;
}

struct JoinRun {
  uint64_t joined = 0;
  uint64_t purged = 0;
  uint64_t guarded = 0;
};

JoinRun RunJoin(benchmark::State* state, int n, const char* feedback,
                bool batched_probe = true, int burst = 1) {
  QueryPlan plan;
  auto* left = plan.AddOp(std::make_unique<VectorSource>(
      "A", LeftSchema(), SideStream(n, true, 50, burst)));
  auto* right = plan.AddOp(std::make_unique<VectorSource>(
      "B", RightSchema(), SideStream(n, false, 50, burst)));
  JoinOptions jopt;
  jopt.left_keys = {1, 2};   // (t, id)
  jopt.right_keys = {0, 1};  // (t, id)
  jopt.page_batched_probe = batched_probe;
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto injected = std::make_shared<bool>(false);
  std::string fb = feedback == nullptr ? "" : feedback;
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false},
      [fb, injected](const Tuple&,
                     TimeMs) -> std::vector<FeedbackPunctuation> {
        if (fb.empty() || *injected) return {};
        *injected = true;
        return {ParseFeedback(fb).value()};
      }));
  NSTREAM_CHECK(plan.Connect(*left, 0, *join, 0).ok());
  NSTREAM_CHECK(plan.Connect(*right, 0, *join, 1).ok());
  NSTREAM_CHECK(plan.Connect(*join, *sink).ok());

  SyncExecutor exec;
  Status st = exec.Run(&plan);
  if (!st.ok() && state != nullptr) {
    state->SkipWithError(st.ToString().c_str());
  }
  JoinRun out;
  out.joined = join->joined_count();
  out.purged = join->stats().state_purged;
  out.guarded = join->stats().input_guard_drops +
                join->stats().output_guard_drops;
  return out;
}

void BM_Join_NullResponse(benchmark::State& state) {
  for (auto _ : state) {
    JoinRun r = RunJoin(&state, static_cast<int>(state.range(0)),
                        nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Join_NullResponse)->Arg(1 << 11)->Arg(1 << 13);

void BM_Join_JoinAttrFeedback(benchmark::State& state) {
  // Table 2 row 1: ¬[*,j,*] — purge both tables, guard, propagate.
  for (auto _ : state) {
    JoinRun r = RunJoin(&state, static_cast<int>(state.range(0)),
                        "~[*,3,*,*]");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Join_JoinAttrFeedback)->Arg(1 << 11)->Arg(1 << 13);

void BM_Join_LeftOnlyFeedback(benchmark::State& state) {
  // Table 2 row 2: ¬[l,*,*] — left side only.
  for (auto _ : state) {
    JoinRun r = RunJoin(&state, static_cast<int>(state.range(0)),
                        "~[42,*,*,*]");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Join_LeftOnlyFeedback)->Arg(1 << 11)->Arg(1 << 13);

void BM_Join_SplitFeedback(benchmark::State& state) {
  // Table 2 row 4: ¬[l,*,r] — output guard only (unsafe to split).
  for (auto _ : state) {
    JoinRun r = RunJoin(&state, static_cast<int>(state.range(0)),
                        "~[42,*,*,17]");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Join_SplitFeedback)->Arg(1 << 11)->Arg(1 << 13);

// ---- Join-key probe microbench: seed string keys vs hashed keys ----
// The seed join rendered "wid|v0|v1|..." per probe (one std::string
// allocation plus a ToString per key attribute); the overhauled join
// keys on a 64-bit (wid, HashSubset) value. Both are measured here so
// the before/after lands in BENCH_hotpath.json.

std::string SeedMakeKey(const Tuple& t, const std::vector<int>& keys,
                        int64_t wid) {
  std::string out = std::to_string(wid);
  for (int k : keys) {
    out += '|';
    out += t.value(k).ToString();
  }
  return out;
}

uint64_t HashedKey(const Tuple& t, const std::vector<int>& keys,
                   int64_t wid) {
  // The production scheme, via the join's own mixer — keeps the
  // recorded "after" number honest if the scheme ever changes.
  return SymmetricHashJoin::MixWidHash(
      static_cast<uint64_t>(t.HashSubset(keys)), wid);
}

void RecordHotpathJson() {
  using benchjson::MeasurePerSec;
  const int kTuples = 4096;
  const std::vector<int> keys = {1, 2};
  std::vector<Tuple> tuples;
  tuples.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) {
    tuples.push_back(
        TupleBuilder().I64(i % 100).I64(i % 50).I64(i % 7).Build());
  }

  // Build + probe a table the seed way and the hashed way.
  double seed_probe = MeasurePerSec(kTuples, 150.0, [&] {
    std::unordered_map<std::string, int> table;
    for (const Tuple& t : tuples) table[SeedMakeKey(t, keys, 3)] += 1;
    int hits = 0;
    for (const Tuple& t : tuples) {
      auto it = table.find(SeedMakeKey(t, keys, 3));
      if (it != table.end()) hits += it->second;
    }
    benchmark::DoNotOptimize(hits);
  });
  double hashed_probe = MeasurePerSec(kTuples, 150.0, [&] {
    std::unordered_map<uint64_t, int> table;
    for (const Tuple& t : tuples) table[HashedKey(t, keys, 3)] += 1;
    int hits = 0;
    for (const Tuple& t : tuples) {
      auto it = table.find(HashedKey(t, keys, 3));
      if (it != table.end()) hits += it->second;
    }
    benchmark::DoNotOptimize(hits);
  });

  // Stored-row cost: the same tuples held by one join input, fed
  // through the public ProcessTuple before any window closes, as
  // state_bytes() per row held — the row, its slots and its share of
  // the hash index. Deterministic: a count, not a timing.
  double state_bytes_per_row = 0;
  {
    struct DiscardCtx final : ExecContext {
      void EmitTuple(int, Tuple) override {}
      void EmitPunct(int, Punctuation) override {}
      void EmitEos(int) override {}
      void EmitFeedback(int, FeedbackPunctuation) override {}
      void EmitControl(int, ControlMessage) override {}
      TimeMs NowMs() const override { return 0; }
      void ChargeMs(double) override {}
    } ctx;
    JoinOptions jopt;
    jopt.left_keys = {1, 2};
    jopt.right_keys = {0, 1};
    SymmetricHashJoin join("join", jopt);
    NSTREAM_CHECK(join.SetInputSchema(0, LeftSchema()).ok());
    NSTREAM_CHECK(join.SetInputSchema(1, RightSchema()).ok());
    NSTREAM_CHECK(join.InferSchemas().ok());
    NSTREAM_CHECK(join.Open(&ctx).ok());
    for (const Tuple& t : tuples) NSTREAM_CHECK(join.ProcessTuple(0, t).ok());
    NSTREAM_CHECK(join.table_size(0) == tuples.size());
    state_bytes_per_row = static_cast<double>(join.state_bytes()) /
                          static_cast<double>(join.table_size(0));
  }

  // End-to-end Table 2 join throughput (tuples pushed per wall
  // second), with the page-at-a-time probe A/B'd against the
  // element-wise walk on the identical plan, on the classic Table 2
  // stream (adjacent keys always differ) and on a bursty variant
  // (8-tuple key bursts, where the memo skips the chain lookup).
  // table2_8192 measures the production default (batched). One run
  // pushes 16,384 tuples in about 20 ms, too short to time alone on a
  // shared host, so a sample repeats runs for at least 200 ms. The
  // arms alternate sample by sample, so host drift hits them alike,
  // and each row is the median of kSamples, with min and max printed.
  //
  // TRAJECTORY NOTE: these rows were first one cold run, then the best
  // of 3 warm single runs; a delta across those recordings conflates
  // the methods.
  const int kJoinN = 1 << 13;
  const bool kDefaultBatched = JoinOptions{}.page_batched_probe;
  struct Arm {
    const char* name;
    bool batched;
    int burst;
    std::vector<double> samples;
  };
  Arm arms[] = {{"batched", true, 1, {}},
                {"element", false, 1, {}},
                {"bursty8 batched", true, 8, {}},
                {"bursty8 element", false, 8, {}}};
  auto sample = [&](const Arm& arm) {
    const auto start = std::chrono::steady_clock::now();
    int runs = 0;
    double ms = 0;
    do {
      JoinRun run = RunJoin(nullptr, kJoinN, nullptr, arm.batched, arm.burst);
      benchmark::DoNotOptimize(run.joined);
      ++runs;
      ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
    } while (ms < 200.0);
    return 2.0 * kJoinN * runs / (ms / 1000.0);
  };
  for (const Arm& arm : arms) sample(arm);  // warm-up
  constexpr int kSamples = 9;
  for (int i = 0; i < kSamples; ++i) {
    for (Arm& arm : arms) arm.samples.push_back(sample(arm));
  }
  auto median = [](Arm& arm) {
    std::vector<double>& v = arm.samples;
    std::sort(v.begin(), v.end());
    std::printf("table2 join %-15s median %9.0f  min %9.0f  max %9.0f "
                "tuples/s (n = %zu alternating 200 ms samples)\n",
                arm.name, v[v.size() / 2], v.front(), v.back(), v.size());
    return v[v.size() / 2];
  };
  const double batched_tps = median(arms[0]);
  const double element_tps = median(arms[1]);
  const double default_tps = kDefaultBatched ? batched_tps : element_tps;
  const double bursty_adjacent_tps = median(arms[2]);
  const double bursty_element_tps = median(arms[3]);

  // Staged-result construction in isolation (the join's emit path,
  // per output tuple): columnar = AddRow + one Set per attribute into
  // column arrays; row = a frozen reference of the removed row
  // staging: arena tuple, one Append per attribute, one StreamElement
  // push. Join-shaped pairs: 3 left attrs + 1 right non-key attr ->
  // 4-attr output, pages of output_page_size.
  const int kEmitPage = JoinOptions{}.output_page_size;
  std::vector<Tuple> emit_left, emit_right;
  for (int i = 0; i < kEmitPage; ++i) {
    emit_left.push_back(
        TupleBuilder().I64(i % 100).I64(i % 50).I64(i % 7).Build());
    emit_right.push_back(
        TupleBuilder().I64(i % 50).I64(i % 7).I64(i % 100).Build());
  }
  auto emit_ns = [](double per_sec) { return 1e9 / per_sec; };
  double columnar_emit_ns = emit_ns(MeasurePerSec(kEmitPage, 60.0, [&] {
    Page p;
    ColumnarBlock* b =
        p.BeginColumnar(4, static_cast<uint32_t>(kEmitPage));
    for (int i = 0; i < kEmitPage; ++i) {
      const Tuple& l = emit_left[static_cast<size_t>(i)];
      const Tuple& r = emit_right[static_cast<size_t>(i)];
      uint32_t row = b->AddRow(l.id(), -1);
      b->Set(0, row, l.value(0));
      b->Set(1, row, l.value(1));
      b->Set(2, row, l.value(2));
      b->Set(3, row, r.value(2));
    }
    benchmark::DoNotOptimize(p.size());
  }));
  double rowpage_emit_ns = emit_ns(MeasurePerSec(kEmitPage, 60.0, [&] {
    Page p;
    p.Reserve(static_cast<size_t>(kEmitPage));
    for (int i = 0; i < kEmitPage; ++i) {
      const Tuple& l = emit_left[static_cast<size_t>(i)];
      const Tuple& r = emit_right[static_cast<size_t>(i)];
      Tuple out(p.arena(), 4);
      out.Append(l.value(0));
      out.Append(l.value(1));
      out.Append(l.value(2));
      out.Append(r.value(2));
      out.set_id(l.id());
      p.Add(StreamElement::OfTuple(std::move(out)));
    }
    benchmark::DoNotOptimize(p.size());
  }));

  // Allocations per output tuple, via the operator-new counting hook
  // plus the chunk reserve's counts. One warm run first so the reserve
  // and code paths are hot; then a counted run. The count covers the
  // whole pipeline (plan build, sources, queues), so the per-output
  // quotient slightly OVERSTATES the result-tuple cost — fine for an
  // upper bound.
  RunJoin(nullptr, kJoinN, nullptr, kDefaultBatched);  // warm
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed) + ReserveAllocs();
  const JoinRun counted = RunJoin(nullptr, kJoinN, nullptr, kDefaultBatched);
  const double arena_allocs =
      static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) +
                          ReserveAllocs() - allocs_before) /
      static_cast<double>(counted.joined == 0 ? 1 : counted.joined);

  benchjson::RecordAll({
      {"join.seed_stringkey_probes_per_sec", seed_probe},
      {"join.hashed_probes_per_sec", hashed_probe},
      {"join.hashed_probe_speedup", hashed_probe / seed_probe},
      {"join.table2_8192_tuples_per_sec", default_tps},
      {"join.batched_probe_tuples_per_sec", batched_tps},
      {"join.element_probe_tuples_per_sec", element_tps},
      {"join.batched_probe_speedup", batched_tps / element_tps},
      // The bursty-stream shape, where the batched walk's memo
      // actually collapses chain lookups.
      {"join.bursty8_adjacent_tuples_per_sec", bursty_adjacent_tps},
      {"join.bursty8_element_tuples_per_sec", bursty_element_tps},
      {"join.bursty8_adjacent_speedup",
       bursty_adjacent_tps / bursty_element_tps},
      // Heap allocations plus chunks from outside the reserve's idle
      // set, per output tuple on the production (batched, paged,
      // arena-backed columnar) configuration.
      {"join.arena_allocs_per_output", arena_allocs},
      // Columnar (SoA) result staging against a frozen row-page
      // reference: the isolated emit-path cost per output tuple.
      {"join.columnar_emit_ns_per_tuple", columnar_emit_ns},
      {"join.rowpage_emit_ns_per_tuple", rowpage_emit_ns},
      {"join.columnar_emit_speedup",
       rowpage_emit_ns / columnar_emit_ns},
      {"join.state_bytes_per_row", state_bytes_per_row},
      {"join.online_cpus",
       static_cast<double>(std::thread::hardware_concurrency())},
  });
}

}  // namespace
}  // namespace nstream

// Global allocation-counting shims (see g_alloc_count above), routed
// through out-of-line helpers so the compiler never pairs an inlined
// malloc with a delete. Counting uses relaxed atomics, so the hook
// costs one uncontended add per allocation.
namespace {

void* CountedAlloc(std::size_t n) {
  nstream::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void CountedFree(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

int main(int argc, char** argv) {
  using namespace nstream;
  std::printf("%s", ExperimentBanner("T2 (Table 2)",
                                     "A characterization for JOIN")
                        .c_str());
  std::printf("%s\n",
              RenderCharacterization("Published rows:", Table2Join())
                  .c_str());

  // §4.2 worked examples: A(a,t,id) ⋈ B(t,id,b) → C(a,t,id,b).
  SchemaMap map(2, 4);
  NSTREAM_CHECK(map.Map(0, 0, 0).ok());               // a   <- A.0
  NSTREAM_CHECK(map.Map(1, 0, 1).ok());               // t   <- A.1
  NSTREAM_CHECK(map.Map(1, 1, 0).ok());               //      & B.0
  NSTREAM_CHECK(map.Map(2, 0, 2).ok());               // id  <- A.2
  NSTREAM_CHECK(map.Map(2, 1, 1).ok());               //      & B.1
  NSTREAM_CHECK(map.Map(3, 1, 2).ok());               // b   <- B.2

  struct Case {
    const char* fb;
    bool to_a;
    bool to_b;
  };
  Case cases[] = {
      {"~[*,3,4,*]", true, true},    // join attrs: both inputs
      {"~[50,*,*,*]", true, false},  // left-only attr
      {"~[50,*,*,50]", false, false} // split: no safe propagation
  };
  std::printf("Safe-propagation decisions (§4.2 worked examples):\n");
  bool all_ok = true;
  for (const Case& c : cases) {
    PunctPattern p = ParseFeedback(c.fb).value().pattern();
    bool a = CanPropagate(p, map, 0);
    bool b = CanPropagate(p, map, 1);
    bool ok = a == c.to_a && b == c.to_b;
    all_ok = all_ok && ok;
    std::printf("  %-14s -> A:%-3s B:%-3s  [%s]\n", c.fb,
                a ? "yes" : "no", b ? "yes" : "no",
                ok ? "MATCH" : "MISMATCH");
  }

  JoinRun null_run = RunJoin(nullptr, 1 << 13, nullptr);
  JoinRun join_attr = RunJoin(nullptr, 1 << 13, "~[*,3,*,*]");
  JoinRun split = RunJoin(nullptr, 1 << 13, "~[42,*,*,17]");
  std::printf(
      "\nEffect at 8192 tuples/side:\n"
      "  null response:     %llu joined\n"
      "  ~[*,j,*]:          %llu joined, %llu purged, %llu guarded\n"
      "  ~[l,*,r] (split):  %llu joined, %llu purged, %llu guarded\n\n",
      (unsigned long long)null_run.joined,
      (unsigned long long)join_attr.joined,
      (unsigned long long)join_attr.purged,
      (unsigned long long)join_attr.guarded,
      (unsigned long long)split.joined,
      (unsigned long long)split.purged,
      (unsigned long long)split.guarded);
  if (!all_ok) return 1;

  RecordHotpathJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
