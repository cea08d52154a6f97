// Scheduler characterization (ROADMAP item 3): what a fixed worker
// pool costs relative to a thread per operator. Records the per-slice
// dispatch overhead, the wake→drain round trip on a 1-tuple-page
// pipe, the pool=1 end-to-end throughput against ThreadedExecutor on
// the Table 2 join pipeline (acceptance: within 10%), pool 2 and pool
// 4 against ThreadedExecutor on the same join (the gate for retiring
// thread-per-operator: pooled must match it at pool 4 too), and the
// multi-query shape the pool exists for — many concurrent plans on
// two workers, which thread-per-operator could only serve by
// spawning plans × operators threads.
//
// Like the sharded-join and queue benches, several rows depend on how
// many CPUs the host exposes, so sched.online_cpus is recorded next
// to the batch for cross-box comparability.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"

namespace nstream {
namespace {

// ---- Filter-chain plan: source → σ → σ → sink ----------------------

SchemaPtr ChainSchema() {
  return Schema::Make(
      {{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
}

std::vector<TimedElement> ChainStream(int n) {
  std::vector<TimedElement> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(TimedElement::OfTuple(
        static_cast<TimeMs>(i),
        TupleBuilder()
            .I64(i % 100)
            .D(static_cast<double>(i % 977))
            .Build()));
  }
  return out;
}

struct ChainPlan {
  std::unique_ptr<QueryPlan> plan;
};

ChainPlan MakeChainPlan(int n) {
  ChainPlan out;
  out.plan = std::make_unique<QueryPlan>();
  QueryPlan& plan = *out.plan;
  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "src", ChainSchema(), ChainStream(n)));
  auto* s1 = plan.AddOp(Select::FromPattern(
      "sel-lo", PunctPattern::AllWildcard(2).With(
                    1, AttrPattern::Ge(Value::Double(10.0)))));
  auto* s2 = plan.AddOp(Select::FromPattern(
      "sel-hi", PunctPattern::AllWildcard(2).With(
                    1, AttrPattern::Le(Value::Double(900.0)))));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false}));
  NSTREAM_CHECK(plan.Connect(*source, *s1).ok());
  NSTREAM_CHECK(plan.Connect(*s1, *s2).ok());
  NSTREAM_CHECK(plan.Connect(*s2, *sink).ok());
  NSTREAM_CHECK(plan.Finalize().ok());
  return out;
}

// ---- Table 2 join plan (bench_table2_join's shape) -----------------

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

std::vector<TimedElement> SideStream(int n, bool left, int key_mod) {
  std::vector<TimedElement> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    TimeMs at = static_cast<TimeMs>(i);
    if (left) {
      out.push_back(TimedElement::OfTuple(
          at, TupleBuilder()
                  .I64(i % 100)
                  .I64(i % key_mod)
                  .I64(i % 7)
                  .Build()));
    } else {
      out.push_back(TimedElement::OfTuple(
          at, TupleBuilder()
                  .I64(i % key_mod)
                  .I64(i % 7)
                  .I64(i % 100)
                  .Build()));
    }
  }
  return out;
}

struct JoinPlan {
  std::unique_ptr<QueryPlan> plan;
};

JoinPlan MakeJoinPlan(int n) {
  JoinPlan out;
  out.plan = std::make_unique<QueryPlan>();
  QueryPlan& plan = *out.plan;
  auto* left = plan.AddOp(std::make_unique<VectorSource>(
      "A", LeftSchema(), SideStream(n, true, 50)));
  auto* right = plan.AddOp(std::make_unique<VectorSource>(
      "B", RightSchema(), SideStream(n, false, 50)));
  JoinOptions jopt;
  jopt.left_keys = {1, 2};   // (t, id)
  jopt.right_keys = {0, 1};  // (t, id)
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false}));
  NSTREAM_CHECK(plan.Connect(*left, 0, *join, 0).ok());
  NSTREAM_CHECK(plan.Connect(*right, 0, *join, 1).ok());
  NSTREAM_CHECK(plan.Connect(*join, *sink).ok());
  NSTREAM_CHECK(plan.Finalize().ok());
  return out;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Run one plan on a fresh pool; returns wall ms and the scheduler's
// counters for the run (stats are per-Scheduler, so a fresh executor
// keeps them attributable).
struct PooledRun {
  double ms = 0;
  SchedulerStats stats;
};

PooledRun RunPooled(int n, PooledExecutorOptions opts,
                    bool join_plan) {
  PooledRun out;
  if (join_plan) {
    JoinPlan p = MakeJoinPlan(n);
    PooledExecutor exec(opts);
    auto start = std::chrono::steady_clock::now();
    NSTREAM_CHECK(exec.Run(p.plan.get()).ok());
    out.ms = ElapsedMs(start);
    out.stats = exec.scheduler()->stats();
  } else {
    ChainPlan p = MakeChainPlan(n);
    PooledExecutor exec(opts);
    auto start = std::chrono::steady_clock::now();
    NSTREAM_CHECK(exec.Run(p.plan.get()).ok());
    out.ms = ElapsedMs(start);
    out.stats = exec.scheduler()->stats();
  }
  return out;
}

double RunThreadedMs(int n) {
  JoinPlan p = MakeJoinPlan(n);
  ThreadedExecutor exec;
  auto start = std::chrono::steady_clock::now();
  NSTREAM_CHECK(exec.Run(p.plan.get()).ok());
  return ElapsedMs(start);
}

// ---- google-benchmark registrations (bench-smoke coverage) ---------

void BM_Pooled_FilterChain(benchmark::State& state) {
  PooledExecutorOptions opts;
  opts.pool_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PooledRun r = RunPooled(1 << 12, opts, /*join_plan=*/false);
    benchmark::DoNotOptimize(r.stats.slices);
  }
}
BENCHMARK(BM_Pooled_FilterChain)->Arg(1)->Arg(2);

void BM_Pooled_Join_Pool1(benchmark::State& state) {
  PooledExecutorOptions opts;
  opts.pool_size = 1;
  for (auto _ : state) {
    PooledRun r = RunPooled(static_cast<int>(state.range(0)), opts,
                            /*join_plan=*/true);
    benchmark::DoNotOptimize(r.stats.slices);
  }
}
BENCHMARK(BM_Pooled_Join_Pool1)->Arg(1 << 11);

void BM_Threaded_Join(benchmark::State& state) {
  for (auto _ : state) {
    double ms = RunThreadedMs(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(ms);
  }
}
BENCHMARK(BM_Threaded_Join)->Arg(1 << 11);

// ---- Recorded trajectory metrics -----------------------------------

void RecordHotpathJson() {
  // Per-slice cost including dispatch: pool=1 on the filter chain, so
  // every slice crosses the full pop-ready → run → re-enqueue path
  // with zero cross-worker noise. Warm once, then best (min ns/slice)
  // of 3 — same methodology note as table2_8192.
  const int kChainN = 1 << 13;
  PooledExecutorOptions pool1;
  pool1.pool_size = 1;
  RunPooled(kChainN, pool1, false);  // warm-up
  double slice_ns = 1e18;
  for (int i = 0; i < 3; ++i) {
    PooledRun r = RunPooled(kChainN, pool1, false);
    double ns = r.ms * 1e6 / static_cast<double>(
                                 r.stats.slices == 0 ? 1 : r.stats.slices);
    slice_ns = std::min(slice_ns, ns);
  }

  // Wake→drain round trip: page_size=1 turns every tuple into its own
  // page, and with 2 workers the producer and consumer slices overlap,
  // so each delivered wake carries exactly one page through the
  // pipeline. ns per delivered wake is the round-trip upper bound
  // (it includes the slice that drains the page).
  PooledExecutorOptions ping;
  ping.pool_size = 2;
  ping.queue.page_size = 1;
  RunPooled(1 << 11, ping, false);  // warm-up
  double wake_ns = 1e18;
  for (int i = 0; i < 3; ++i) {
    PooledRun r = RunPooled(1 << 11, ping, false);
    uint64_t wakes = r.stats.wakes_delivered;
    double ns = r.ms * 1e6 / static_cast<double>(wakes == 0 ? 1 : wakes);
    wake_ns = std::min(wake_ns, ns);
  }

  // Pool=1 vs thread-per-operator on the Table 2 join: the overhead
  // acceptance row. Both sides warm once then best-of-3; throughput is
  // input tuples (both sides) per wall second.
  const int kJoinN = 1 << 13;
  RunPooled(kJoinN, pool1, true);  // warm-up
  RunThreadedMs(kJoinN);
  double pool1_tps = 0;
  double threaded_tps = 0;
  for (int i = 0; i < 3; ++i) {
    PooledRun r = RunPooled(kJoinN, pool1, true);
    pool1_tps = std::max(pool1_tps, 2.0 * kJoinN / (r.ms / 1000.0));
    double tms = RunThreadedMs(kJoinN);
    threaded_tps =
        std::max(threaded_tps, 2.0 * kJoinN / (tms / 1000.0));
  }

  // Pool 2 / pool 4 against thread-per-operator on the same join. The
  // arms alternate run by run, so host drift hits all three alike;
  // each row is the median of kGateRuns, with min/max printed.
  constexpr int kGateRuns = 9;
  PooledExecutorOptions pool2;
  pool2.pool_size = 2;
  PooledExecutorOptions pool4;
  pool4.pool_size = 4;
  RunPooled(kJoinN, pool2, true);  // warm-up
  RunPooled(kJoinN, pool4, true);
  std::vector<double> threaded_runs, pool2_runs, pool4_runs;
  auto tps = [&](double ms) { return 2.0 * kJoinN / (ms / 1000.0); };
  for (int i = 0; i < kGateRuns; ++i) {
    threaded_runs.push_back(tps(RunThreadedMs(kJoinN)));
    pool2_runs.push_back(tps(RunPooled(kJoinN, pool2, true).ms));
    pool4_runs.push_back(tps(RunPooled(kJoinN, pool4, true).ms));
  }
  auto median = [](const char* arm, std::vector<double> runs) {
    std::sort(runs.begin(), runs.end());
    std::printf("table2 join %-8s median %9.0f  min %9.0f  max %9.0f "
                "tuples/s (%zu alternating runs)\n",
                arm, runs[runs.size() / 2], runs.front(), runs.back(),
                runs.size());
    return runs[runs.size() / 2];
  };
  const double threaded_median = median("threaded", threaded_runs);
  const double pool2_median = median("pool2", pool2_runs);
  const double pool4_median = median("pool4", pool4_runs);

  // The multi-query shape: 8 filter-chain plans resident on one
  // 2-worker pool. Thread-per-operator would need 8 plans × 4 ops =
  // 32 threads for the same job.
  const int kMultiN = 1 << 12;
  const int kPlans = 8;
  auto multi_run = [&] {
    std::vector<ChainPlan> plans;
    plans.reserve(kPlans);
    for (int i = 0; i < kPlans; ++i) {
      plans.push_back(MakeChainPlan(kMultiN));
    }
    PooledExecutorOptions opts;
    opts.pool_size = 2;
    PooledExecutor exec(opts);
    auto start = std::chrono::steady_clock::now();
    std::vector<QueryId> ids;
    for (ChainPlan& p : plans) {
      ids.push_back(exec.Submit(p.plan.get()).value());
    }
    for (QueryId id : ids) NSTREAM_CHECK(exec.Wait(id).ok());
    double ms = ElapsedMs(start);
    return kPlans * static_cast<double>(kMultiN) / (ms / 1000.0);
  };
  multi_run();  // warm-up
  double multi_tps = 0;
  for (int i = 0; i < 3; ++i) multi_tps = std::max(multi_tps, multi_run());

  benchjson::RecordAll({
      {"sched.slice_ns", slice_ns},
      {"sched.wake_roundtrip_ns", wake_ns},
      {"sched.pool1_join_tuples_per_sec", pool1_tps},
      {"sched.threaded_join_tuples_per_sec", threaded_tps},
      // Acceptance row: >= 0.9 means pool=1 is within 10% of a
      // thread per operator on the same pipeline.
      {"sched.pool1_vs_threaded", pool1_tps / threaded_tps},
      {"sched.pool2_join_tuples_per_sec", pool2_median},
      {"sched.pool4_join_tuples_per_sec", pool4_median},
      // Retirement gate: >= 1 means pool 4 matches a thread per
      // operator (medians of the same alternating runs).
      {"sched.pool4_vs_threaded", pool4_median / threaded_median},
      {"sched.multiquery8_pool2_tuples_per_sec", multi_tps},
      {"sched.online_cpus",
       static_cast<double>(std::thread::hardware_concurrency())},
  });
}

}  // namespace
}  // namespace nstream

int main(int argc, char** argv) {
  nstream::RecordHotpathJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
