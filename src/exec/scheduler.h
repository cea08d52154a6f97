// Scheduler / PooledExecutor: resumable operator tasks on a fixed-size
// worker pool (ROADMAP item 3). ThreadedExecutor spawns one thread per
// operator — fine for one plan, fatal for thousands of concurrent
// queries. Here each operator becomes a TASK driven through a small
// state machine:
//
//        Submit                   Wake (page/control arrives)
//   ┌──> kQueued ──pop──> kRunning ──no work──> kWaiting ──┐
//   │       ^                │  │  │                       │
//   │       │   did work /   │  │  └── finished / query ──> kKilled
//   │       └── wake_pending ┘  │      failed
//   │                           └── output credit spent ──> kWaiting
//   │                                 (credit-parked) ──┐
//   │        consumer pop / consumer killed / control / │
//   │        checkpoint start                           │
//   └───────────────────────────────────────────────────┘
//
// A task SLICE is one iteration of the classic operator loop (§5):
// drain output-side control channels first, sources produce a bounded
// batch, then drain up to `max_pages_per_wake` pages per input. A
// slice that leaves every input queue empty, a source that parks idle
// or paced, and a task forwarding a checkpoint barrier first flush
// the task's staged output (PlanRuntime::FlushStaged): output pages
// fill across input pages and go out when the task parks — unless a
// producer still holds a backlog (credit-parked, or input queued),
// in which case the flush waits for the park that ends the burst. Wakes
// come from queue-readiness notifiers (DataQueue consumer notifier →
// consumer task; ControlChannel notifier → producer task) instead of
// parked per-operator threads. All state transitions happen under one
// scheduler mutex, so wakes are never lost: a wake that races a
// running slice sets `wake_pending`, which the slice's completion
// converts into a re-enqueue.
//
// Transports: every push the pool makes must be NON-BLOCKING — with a
// fixed pool, a producer slice parked on backpressure can starve the
// very consumer task that would drain the queue (guaranteed deadlock
// at pool size 1). Submit therefore wires plans with
// EdgeTransportPolicy::kSpscChainWhereEligible (SPSC chain / mutex
// deque, neither with a capacity) and forces max_pages = 0.
//
// Output credit bounds those queues without blocking a push: a task
// does not START new work (a source's next element, anyone else's next
// input page) while an output edge whose consumer is live already
// holds kOutputCreditPages complete pages (scheduler.cc) — or, for a
// copy fan-out (Operator::outputs_are_copies, i.e. Duplicate), while
// EVERY such edge does, so a slow branch backs up alone instead of
// starving its siblings (Figs. 5–6 depend on the branches diverging).
// It parks WAITING instead, and the consumer's slice, ending under the
// scheduler mutex after its pops, releases it once credit returns.
// Work already started always finishes, so an edge holds at most the
// limit plus one slice's output (a copy fan-out's slow edge excepted:
// there the backlog stays within feedback's reach, §4.1), and the
// backlog of a saturated plan waits upstream: for IngestSource in the
// conduit's byte budget and the producers' sockets. Control messages,
// a killed consumer and a starting checkpoint (whose alignment ignores
// credit) release a parked task too, so nothing waits on a consumer
// that will never pop.
//
// SPSC soundness under worker migration: each queue side is pinned to
// one task, a task runs on at most one worker at a time, and the
// worker handoff goes through the scheduler mutex (release/acquire),
// so the chain's single-writer fields see proper happens-before. The
// DataQueue consumer-affinity tripwire enforces the consumer half of
// this at runtime (tokens set per slice).
//
// Manual mode (`SchedulerOptions::manual`) starts no workers and
// exposes the ready set for external driving — the deterministic
// scheduling-test harness (tests/testing/sched_harness.h) picks slices
// from a seeded RNG, defers wakes through SetWakeHook, and runs
// against a VirtualClock so interleavings reproduce from a seed.
// RunManual is the FIFO drive the virtual-time experiments use.

#ifndef NSTREAM_EXEC_SCHEDULER_H_
#define NSTREAM_EXEC_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "exec/query_plan.h"
#include "exec/runtime.h"
#include "recovery/checkpoint.h"

namespace nstream {

/// Operator-task lifecycle states.
enum class TaskState : uint8_t {
  kQueued = 0,  // in the ready set, awaiting a worker
  kRunning,     // a worker (or manual step) is executing a slice
  kWaiting,     // no pending work; parked until a wake (or due time)
  kKilled,      // finished, or its query failed — never runs again
};

const char* TaskStateName(TaskState s);

/// Identifies one submitted plan; wakes and introspection are scoped
/// by it so concurrent queries never cross-talk.
using QueryId = int64_t;

struct SchedulerOptions {
  /// Worker threads (ignored in manual mode). The pool size bounds
  /// thread count regardless of how many plans/operators are live.
  int num_workers = 2;
  /// Per-edge queue tuning. max_pages is forced to 0 at Submit: pooled
  /// pushes must never block; output credit bounds the queues instead
  /// (see file comment).
  DataQueueOptions queue{/*page_size=*/128, /*max_pages=*/0};
  /// When true, each source produces only elements whose
  /// NextArrivalMs() * pace_scale is due on the scheduler clock; a
  /// source ahead of time parks WAITING until its due instant.
  bool pace_sources = false;
  double pace_scale = 1.0;
  /// Pages an operator may drain per input per slice before the slice
  /// ends (control is re-checked between slices). The drain budget
  /// that keeps one busy operator from starving the pool.
  int max_pages_per_wake = 1;
  /// Elements a source may produce per slice (its drain budget).
  int source_batch_per_slice = 32;
  /// SPSC-eligible edges get the lock-free chain; others the mutex
  /// deque. Off = mutex deque everywhere (A/B hedge).
  bool use_lockfree_queues = true;
  /// Manual mode: no worker threads; drive with ReadyCount /
  /// StepReadyAt / ReleaseDue / NextDueMs. Single-threaded by design.
  bool manual = false;
  /// Deterministic time source for manual mode (implies manual; the
  /// driver owns clock advancement). ChargeMs then accrues to the
  /// running slice and BUSY-PARKS the task until now + charge: a
  /// charged operator is unavailable for that long while free
  /// operators keep running at the current instant — exact,
  /// box-speed-independent cost dynamics (wakes landing in a busy
  /// window coalesce into the release).
  VirtualClock* virtual_clock = nullptr;
};

/// Monotonic counters (tests/benches). Aggregated across all queries.
struct SchedulerStats {
  uint64_t slices = 0;            // task slices executed
  uint64_t wakes_delivered = 0;   // wake moved a task WAITING → QUEUED
  uint64_t wakes_coalesced = 0;   // wake landed on a RUNNING task
  uint64_t wakes_ignored = 0;     // wake on a QUEUED/KILLED task
  uint64_t requeues = 0;          // slice did work and re-enqueued
  uint64_t tasks_created = 0;
  uint64_t tasks_killed = 0;
  uint64_t affinity_violations = 0;  // summed over all edges' queues
  uint64_t credit_parks = 0;  // task parked WAITING for output credit
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a plan: build its runtime (non-blocking transports),
  /// wire queue/control notifiers to task wakes, Open every operator,
  /// and enqueue all tasks. Returns the query's id. The plan must
  /// outlive the scheduler (or its Wait call).
  Result<QueryId> Submit(QueryPlan* plan);

  /// Submit a rebuilt plan and restore it from a snapshot file before
  /// any slice runs: operator state is rewound to the checkpoint's
  /// punctuation-aligned cut, in-flight queue pages are refilled, and
  /// sources resume from their recorded offsets (at-least-once
  /// replay). The plan must be structurally identical to the one that
  /// wrote the snapshot.
  Result<QueryId> SubmitRecovered(QueryPlan* plan,
                                  const std::string& snapshot_path);

  /// Pool mode: block until the query completes, then Close its
  /// operators and return the first error (slice or Close). Manual
  /// mode: FailedPrecondition unless the query is already done.
  ///
  /// Stall watchdog: a non-negative `timeout_ms` bounds the wait
  /// (pool mode); on expiry Wait returns DeadlineExceeded carrying
  /// StallReport() — every task's state and every edge's queue depths
  /// — instead of hanging forever on a wedged plan.
  Status Wait(QueryId id, double timeout_ms = -1);

  // ---- Punctuation-aligned checkpointing ----
  /// Begin an asynchronous checkpoint of one query: a barrier
  /// punctuation (Punctuation::Barrier) is injected at every source,
  /// each task parks once the barrier has arrived on all of its live
  /// inputs (EOS ports count as aligned), and when the whole plan is
  /// quiesced the CheckpointCoordinator serializes operators + queues
  /// and publishes the snapshot atomically — no stop-the-world: tasks
  /// keep processing pre-barrier work until their own alignment.
  /// FailedPrecondition if a checkpoint is already in progress.
  Status StartCheckpoint(QueryId id, CheckpointOptions opts);
  /// Poll the result of StartCheckpoint: nullopt while in progress,
  /// the (consumed) outcome once finished. Manual-mode drivers
  /// interleave this with StepReadyAt.
  std::optional<Status> CheckpointResult(QueryId id);
  /// Pool-mode convenience: StartCheckpoint + block for the result.
  Status Checkpoint(QueryId id, const std::string& path);

  /// Human-readable dump of every live query: per task — operator
  /// name, state, wake/park flags, due time; per edge — data-queue and
  /// control-channel depths. The stall watchdog attaches it to
  /// DeadlineExceeded; harnesses print it on wedged drives.
  std::string StallReport();

  bool Done(QueryId id);
  /// True when every submitted query has completed (true when none).
  bool AllDone();

  /// Spurious-wake storm: wake every live task of every query. Wakes
  /// must be idempotent; tests hammer this concurrently with runs.
  void WakeAll();

  // ---- Manual-mode driving surface ----
  /// Number of tasks currently ready to step.
  size_t ReadyCount();
  /// Run one slice of the index-th ready task (0-based). OutOfRange
  /// if the index is stale; slice errors are recorded in the owning
  /// query (returned by Wait), not here — the drive loop goes on.
  Status StepReadyAt(size_t index);
  /// Enqueue every WAITING task whose paced due time is <= now_ms.
  /// Returns how many were released.
  int ReleaseDue(TimeMs now_ms);
  /// Earliest paced due time among WAITING tasks, if any.
  std::optional<TimeMs> NextDueMs();
  /// Manual-mode wake interception: return true to swallow the wake
  /// (the harness re-injects it later via InjectWake). Install before
  /// submitting; manual mode only.
  using WakeHook = std::function<bool(QueryId id, int64_t op_id)>;
  void SetWakeHook(WakeHook hook);
  /// Deliver a (possibly deferred) wake to one task. No-op on
  /// unknown ids; bypasses the wake hook.
  void InjectWake(QueryId id, int64_t op_id);
  /// FIFO drive to completion: step the oldest ready task; with none
  /// ready, advance the virtual clock to NextDueMs() and release what
  /// is due. Returns once every query is done (Wait then closes each
  /// and reports its status), or FailedPrecondition carrying
  /// StallReport() when nothing is ready or due (or a task is due and
  /// there is no virtual clock to advance). Deterministic: the
  /// virtual-time experiments (Figs. 5–6) run on it.
  Status RunManual();

  // ---- Introspection ----
  SchedulerStats stats() const;
  TaskState task_state(QueryId id, int64_t op_id) const;
  /// Bitmask of workers that ever ran the task (bit i = worker i).
  uint32_t task_worker_mask(QueryId id, int64_t op_id) const;
  /// True while the task is parked WAITING for output credit.
  bool task_credit_parked(QueryId id, int64_t op_id) const;
  /// Complete pages queued on input `port` of the task.
  size_t input_queued_pages(QueryId id, int64_t op_id, int port) const;
  Clock* clock() { return clock_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Stop the pool and join workers. In-flight queries are abandoned
  /// (their Wait unblocks with Cancelled). The destructor calls this.
  void Shutdown();

 private:
  struct Task;
  struct QueryRun;
  struct SliceResult;

  void WorkerLoop(int worker);
  SliceResult RunSlice(Task* t);
  SliceResult RunSliceBody(Task* t);
  void OnSliceDoneLocked(Task* t, const SliceResult& r, int worker);
  /// The task's own transition after a slice (OnSliceDoneLocked's body).
  void SettleSliceLocked(Task* t, const SliceResult& r, int worker);
  void EnqueueLocked(Task* t);
  void WakeLocked(Task* t);
  void Wake(Task* t);
  /// Output credit: true while an output edge with a live consumer
  /// holds the limit. Lock-free (atomics only): slices call it too.
  static bool CreditSpent(const Task* t);
  /// Whether a credit-parked task stays parked (mu_ held).
  static bool CreditHoldsLocked(const Task* t);
  /// Enqueue a credit-parked task whose park no longer holds.
  void MaybeReleaseCreditLocked(Task* t);
  /// True while a producer of `t` is credit-parked or has input queued:
  /// more input is coming without `t` doing anything. Lock-free.
  static bool UpstreamBacklogged(const Task* t);
  /// Wake a task whose deferred flush no longer has a backlog to wait on.
  void RecheckDeferredFlushLocked(Task* t);
  void KillTaskLocked(Task* t);
  void FailRunLocked(QueryRun* run, const Status& status);
  Task* PopReadyLocked(int worker);
  /// Copy checkpoint epoch + barrier bookkeeping into the task's
  /// slice-owned fields; every RUNNING transition goes through this.
  void PrepareSliceLocked(Task* t);
  void PruneKilledLocked();
  int PromoteDueLocked(TimeMs now_ms);
  std::optional<TimeMs> NextDueLocked() const;
  QueryRun* FindRunLocked(QueryId id) const;
  Result<QueryId> SubmitInternal(QueryPlan* plan,
                                 const std::string* snapshot_path);
  /// First run whose checkpoint is fully quiesced (every live task
  /// parked at the barrier); claims it (ckpt_serializing) so exactly
  /// one caller services it. Null when none.
  QueryRun* FindQuiescedCheckpointLocked();
  /// Serialize + publish a claimed quiesced checkpoint, then unpark
  /// its tasks. Called WITHOUT mu_ held.
  void ServiceCheckpoint(QueryRun* run);
  void AbortCheckpointLocked(QueryRun* run, const Status& status);
  std::string StallReportLocked();

  SchedulerOptions options_;
  WallClock wall_clock_;
  Clock* clock_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::condition_variable ckpt_cv_;
  int64_t next_barrier_id_ = 1;
  bool stop_ = false;
  int idle_workers_ = 0;
  std::vector<std::thread> workers_;
  // Ready set: the shared deque plus one pinned deque per worker
  // (affinity-tagged tasks; only worker i pops pinned_[i]). Entries
  // may be stale (task killed while queued) — pops skip them.
  std::deque<Task*> ready_;
  std::vector<std::deque<Task*>> pinned_;
  std::vector<std::unique_ptr<QueryRun>> runs_;
  QueryId next_query_id_ = 1;
  SchedulerStats stats_;
  WakeHook wake_hook_;
};

/// One plan run to completion in virtual time: a manual-mode Scheduler
/// on a fresh VirtualClock with paced sources, driven by RunManual,
/// then Wait. The other `options` fields (page size, budgets) apply as
/// given. Writes the final virtual time to `end_ms` when non-null.
Status RunInVirtualTime(QueryPlan* plan, SchedulerOptions options = {},
                        TimeMs* end_ms = nullptr);

/// Drop-in executor facade over Scheduler, mirroring the other
/// executors' Run(plan) shape for a single plan — or Submit several
/// and Wait on each for multi-query serving.
struct PooledExecutorOptions {
  int pool_size = 2;
  DataQueueOptions queue{/*page_size=*/128, /*max_pages=*/0};
  bool pace_sources = false;
  double pace_scale = 1.0;
  int max_pages_per_wake = 1;
  int source_batch_per_slice = 32;
  bool use_lockfree_queues = true;
};

class PooledExecutor {
 public:
  explicit PooledExecutor(PooledExecutorOptions options = {});

  /// Submit + Wait: run one plan to completion on the pool.
  Status Run(QueryPlan* plan);

  Result<QueryId> Submit(QueryPlan* plan);
  /// Submit a rebuilt plan restored from a snapshot (see
  /// Scheduler::SubmitRecovered).
  Result<QueryId> SubmitRecovered(QueryPlan* plan,
                                  const std::string& snapshot_path);
  /// Optional watchdog deadline; see Scheduler::Wait.
  Status Wait(QueryId id, double timeout_ms = -1);
  /// Blocking punctuation-aligned checkpoint of one live query.
  Status Checkpoint(QueryId id, const std::string& path);

  Scheduler* scheduler() { return scheduler_.get(); }

 private:
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_SCHEDULER_H_
