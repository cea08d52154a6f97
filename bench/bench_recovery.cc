// Checkpoint/recovery characterization (ROADMAP item 5): what a
// punctuation-aligned checkpoint costs. Records
//
//   checkpoint.ckpt_ms_*     barrier-inject → published snapshot file,
//                            measured mid-run on the Table 2 join with
//                            the manual (deterministic) scheduler, at
//                            two state sizes;
//   checkpoint.restore_ms_*  SubmitRecovered latency: read + verify the
//                            snapshot, rebuild operator state, refill
//                            queues, rewind sources;
//   checkpoint.snapshot_kb_* published payload size at each state size
//                            (the "vs state size" axis);
//   checkpoint.peak_heap_kb_large
//                            peak live heap above the level before the
//                            large checkpoint's serialize-and-publish
//                            step, counted by the operator new/delete
//                            shim at the bottom of this file;
//   checkpoint.overhead      steady-state wall-time ratio of a pooled
//                            run with 4 interleaved blocking
//                            checkpoints over the same run with none.
//
// Latency rows depend on how many CPUs the host exposes (the pooled
// overhead row especially), so checkpoint.online_cpus is recorded next
// to the batch for cross-box comparability.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/clock.h"
#include "common/logging.h"
#include "exec/scheduler.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "recovery/checkpoint.h"
#include "recovery/snapshot.h"

namespace nstream {

// Live heap bytes and their high-water mark, kept by the shim below.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

namespace {

// ---- Table 2 join plan (bench_scheduler's shape) -------------------

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
  VectorSource* left = nullptr;
};

JoinPlan MakeJoinPlan(int n) {
  JoinPlan out;
  out.plan = std::make_unique<QueryPlan>();
  QueryPlan& plan = *out.plan;
  out.left = plan.AddOp(std::make_unique<VectorSource>(
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
  NSTREAM_CHECK(plan.Connect(*out.left, 0, *join, 0).ok());
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

// Drive a manual scheduler until `done()` (deterministic: always the
// lowest-index ready task). Stall or budget overrun is a CHECK —
// benches measure, they don't tolerate.
void DriveUntil(Scheduler* sched, VirtualClock* clock,
                const std::function<bool()>& done) {
  for (uint64_t steps = 0; steps < 50'000'000; ++steps) {
    if (done()) return;
    sched->ReleaseDue(clock->NowMs());
    if (sched->ReadyCount() == 0) {
      std::optional<TimeMs> due = sched->NextDueMs();
      NSTREAM_CHECK(due.has_value());
      clock->AdvanceTo(*due);
      continue;
    }
    NSTREAM_CHECK(sched->StepReadyAt(0).ok());
  }
  NSTREAM_CHECK(false);  // budget exhausted
}

// ---- Checkpoint write / restore latency vs state size --------------

struct CkptLatency {
  double ckpt_ms = 0;     // StartCheckpoint → result published
  double restore_ms = 0;  // SubmitRecovered on the rebuilt plan
  double snapshot_kb = 0;
  double peak_heap_kb = 0;  // WriteSnapshot's live-heap high-water mark
};

CkptLatency MeasureCheckpoint(int n) {
  const std::string path =
      "/tmp/nstream_bench_ckpt_" + std::to_string(n) + ".nsp";
  CkptLatency out;

  // Build up join state: drive the plan until the left source is half
  // consumed, so both hash tables hold ~n/2 rows at the barrier.
  JoinPlan p = MakeJoinPlan(n);
  VirtualClock clock;
  SchedulerOptions so;
  so.manual = true;
  so.virtual_clock = &clock;
  Scheduler sched(so);
  Result<QueryId> id = sched.Submit(p.plan.get());
  NSTREAM_CHECK(id.ok());
  DriveUntil(&sched, &clock, [&] {
    return p.left->position() >= static_cast<size_t>(n) / 2;
  });

  // Heap of the serialize-and-publish step alone: the write
  // ServiceCheckpoint runs once the plan is parked, called here on the
  // plan the manual scheduler holds still between slices (the barrier
  // slices below would add their own pages).
  const int64_t heap_before = g_live_bytes.load();
  g_peak_bytes.store(heap_before);
  NSTREAM_CHECK(CheckpointCoordinator::WriteSnapshot(
                    p.plan.get(), nullptr, CheckpointOptions{path})
                    .ok());
  out.peak_heap_kb =
      static_cast<double>(g_peak_bytes.load() - heap_before) / 1024.0;

  // Checkpoint completion latency: barrier injection, per-port
  // alignment, quiesce, serialize, atomic publish. Includes the
  // slices that carry the barrier to the sink — that is the real
  // latency a caller sees.
  auto t0 = std::chrono::steady_clock::now();
  NSTREAM_CHECK(
      sched.StartCheckpoint(id.value(), CheckpointOptions{path}).ok());
  std::optional<Status> res;
  DriveUntil(&sched, &clock, [&] {
    res = sched.CheckpointResult(id.value());
    return res.has_value();
  });
  out.ckpt_ms = ElapsedMs(t0);
  NSTREAM_CHECK(res->ok());

  Result<std::string> payload = ReadSnapshotFile(path);
  NSTREAM_CHECK(payload.ok());
  out.snapshot_kb = static_cast<double>(payload.value().size()) / 1024.0;

  DriveUntil(&sched, &clock, [&] { return sched.AllDone(); });
  NSTREAM_CHECK(sched.Wait(id.value()).ok());

  // Restore latency: rebuild the plan from the same construction code
  // and load the snapshot into it (read + verify + operator state +
  // queue refill + source rewind), exactly the recovery entry point.
  JoinPlan q = MakeJoinPlan(n);
  VirtualClock clock2;
  SchedulerOptions so2;
  so2.manual = true;
  so2.virtual_clock = &clock2;
  Scheduler sched2(so2);
  auto t1 = std::chrono::steady_clock::now();
  Result<QueryId> rid = sched2.SubmitRecovered(q.plan.get(), path);
  out.restore_ms = ElapsedMs(t1);
  NSTREAM_CHECK(rid.ok());
  DriveUntil(&sched2, &clock2, [&] { return sched2.AllDone(); });
  NSTREAM_CHECK(sched2.Wait(rid.value()).ok());

  std::remove(path.c_str());
  return out;
}

// ---- Steady-state overhead: checkpoints on vs off (pooled) ---------

double PooledPlainMs(int n) {
  JoinPlan p = MakeJoinPlan(n);
  PooledExecutor exec(PooledExecutorOptions{});
  auto start = std::chrono::steady_clock::now();
  NSTREAM_CHECK(exec.Run(p.plan.get()).ok());
  return ElapsedMs(start);
}

double PooledCheckpointedMs(int n, int checkpoints) {
  const std::string path = "/tmp/nstream_bench_ckpt_overhead.nsp";
  JoinPlan p = MakeJoinPlan(n);
  PooledExecutor exec(PooledExecutorOptions{});
  auto start = std::chrono::steady_clock::now();
  Result<QueryId> id = exec.Submit(p.plan.get());
  NSTREAM_CHECK(id.ok());
  for (int i = 0; i < checkpoints; ++i) {
    // FailedPrecondition = the query finished before this checkpoint
    // could start; that just means the run outpaced the cadence.
    Status st = exec.Checkpoint(id.value(), path);
    if (st.code() == StatusCode::kFailedPrecondition) break;
    NSTREAM_CHECK(st.ok());
  }
  NSTREAM_CHECK(exec.Wait(id.value()).ok());
  double ms = ElapsedMs(start);
  std::remove(path.c_str());
  return ms;
}

// ---- google-benchmark registrations (bench-smoke coverage) ---------

void BM_Checkpoint_Manual(benchmark::State& state) {
  for (auto _ : state) {
    CkptLatency l = MeasureCheckpoint(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(l.ckpt_ms);
  }
}
BENCHMARK(BM_Checkpoint_Manual)->Arg(1 << 10);

void BM_Checkpoint_PooledOverhead(benchmark::State& state) {
  for (auto _ : state) {
    double ms = PooledCheckpointedMs(1 << 11, /*checkpoints=*/2);
    benchmark::DoNotOptimize(ms);
  }
}
BENCHMARK(BM_Checkpoint_PooledOverhead);

// ---- Recorded trajectory metrics -----------------------------------

void RecordHotpathJson() {
  // Latency vs state size: ~1k rows resident per join side vs ~8k.
  // Warm once, then best (min) of 3 — same methodology note as
  // table2_8192.
  const int kSmall = 1 << 11;
  const int kLarge = 1 << 14;
  MeasureCheckpoint(kSmall);  // warm-up
  CkptLatency small, large;
  small.ckpt_ms = small.restore_ms = 1e18;
  large.ckpt_ms = large.restore_ms = 1e18;
  for (int i = 0; i < 3; ++i) {
    CkptLatency s = MeasureCheckpoint(kSmall);
    small.ckpt_ms = std::min(small.ckpt_ms, s.ckpt_ms);
    small.restore_ms = std::min(small.restore_ms, s.restore_ms);
    small.snapshot_kb = s.snapshot_kb;
    CkptLatency l = MeasureCheckpoint(kLarge);
    large.ckpt_ms = std::min(large.ckpt_ms, l.ckpt_ms);
    large.restore_ms = std::min(large.restore_ms, l.restore_ms);
    large.snapshot_kb = l.snapshot_kb;
    large.peak_heap_kb = l.peak_heap_kb;  // deterministic: manual drive
  }
  std::printf("checkpoint heap: %.1f KiB peak over a %.1f KiB snapshot "
              "(%.2fx)\n",
              large.peak_heap_kb, large.snapshot_kb,
              large.peak_heap_kb / large.snapshot_kb);

  // Steady-state overhead: 4 blocking checkpoints interleaved with a
  // pooled Table 2 run, against the same run with none. Best-of-3 on
  // both sides; the ratio is the acceptance row (1.0 = free).
  const int kOverheadN = 1 << 13;
  PooledPlainMs(kOverheadN);  // warm-up
  double plain = 1e18, ckpted = 1e18;
  for (int i = 0; i < 3; ++i) {
    plain = std::min(plain, PooledPlainMs(kOverheadN));
    ckpted = std::min(ckpted,
                      PooledCheckpointedMs(kOverheadN, /*checkpoints=*/4));
  }

  benchjson::RecordAll({
      {"checkpoint.ckpt_ms_small", small.ckpt_ms},
      {"checkpoint.ckpt_ms_large", large.ckpt_ms},
      {"checkpoint.restore_ms_small", small.restore_ms},
      {"checkpoint.restore_ms_large", large.restore_ms},
      {"checkpoint.snapshot_kb_small", small.snapshot_kb},
      {"checkpoint.snapshot_kb_large", large.snapshot_kb},
      {"checkpoint.peak_heap_kb_large", large.peak_heap_kb},
      {"checkpoint.overhead", ckpted / plain},
      {"checkpoint.online_cpus",
       static_cast<double>(std::thread::hardware_concurrency())},
  });
}

}  // namespace
}  // namespace nstream

// Live-heap shim: every allocation adds its usable size to the live
// count (raising the high-water mark), every free subtracts it.
namespace {

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      nstream::g_live_bytes.fetch_add(size, std::memory_order_relaxed) +
      size;
  int64_t peak = nstream::g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !nstream::g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  nstream::g_live_bytes.fetch_sub(
      static_cast<int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

int main(int argc, char** argv) {
  nstream::RecordHotpathJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
