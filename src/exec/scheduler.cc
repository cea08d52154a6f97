#include "exec/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "recovery/recover.h"
#include "stream/data_queue.h"

namespace nstream {

const char* TaskStateName(TaskState s) {
  switch (s) {
    case TaskState::kQueued:
      return "QUEUED";
    case TaskState::kRunning:
      return "RUNNING";
    case TaskState::kWaiting:
      return "WAITING";
    case TaskState::kKilled:
      return "KILLED";
  }
  return "?";
}

namespace {

/// Output credit: complete pages an output edge may hold before its
/// producer stops starting new work (see the header's file comment).
/// Pushes never block, so the limit bounds what piles up across
/// slices, not within one.
constexpr size_t kOutputCreditPages = 4;

/// ExecContext for one (query, operator) task. Identical data paths to
/// ThreadedContext, but clocked by the scheduler's Clock (wall or
/// virtual) and, under a virtual clock, mapping ChargeMs onto clock
/// advancement — deterministic cost accounting.
class PooledContext final : public ExecContext {
 public:
  PooledContext(PlanRuntime* rt, int64_t op_id, const Clock* clock,
                VirtualClock* virtual_clock)
      : rt_(rt), op_id_(op_id), clock_(clock), virtual_clock_(virtual_clock) {}

  void EmitTuple(int out_port, Tuple t) override {
    if (t.arrival_ms() < 0) t.set_arrival_ms(clock_->NowMs());
    rt_->output_conn(op_id_, out_port)->data->PushTuple(std::move(t));
  }
  void EmitPunct(int out_port, Punctuation p) override {
    rt_->output_conn(op_id_, out_port)
        ->data->PushPunctuation(std::move(p));
  }
  void EmitEos(int out_port) override {
    rt_->output_conn(op_id_, out_port)->data->PushEos();
  }
  void EmitPage(int out_port, Page&& page) override {
    if (page.is_columnar()) {
      ColumnarBlock* b = page.columnar();
      TimeMs* arr = b->mutable_arrivals();
      const TimeMs now = clock_->NowMs();
      for (uint32_t i = 0, n = b->rows(); i < n; ++i) {
        if (arr[i] < 0) arr[i] = now;
      }
    } else {
      for (StreamElement& e : page.mutable_elements()) {
        if (e.mutable_tuple().arrival_ms() < 0) {
          e.mutable_tuple().set_arrival_ms(clock_->NowMs());
        }
      }
    }
    rt_->output_conn(op_id_, out_port)->data->PushPage(std::move(page));
  }
  TupleArena* OpenPageArena(int out_port) override {
    // Producer-local open page: safe because exactly this task ever
    // emits on this port, and a task runs on one worker at a time.
    return rt_->output_conn(op_id_, out_port)->data->OpenPageArena();
  }
  void EmitFeedback(int in_port, FeedbackPunctuation fb) override {
    rt_->input_conn(op_id_, in_port)
        ->control->Push(ControlMessage::Feedback(std::move(fb)));
  }
  void EmitControl(int in_port, ControlMessage msg) override {
    rt_->input_conn(op_id_, in_port)->control->Push(std::move(msg));
  }
  TimeMs NowMs() const override { return clock_->NowMs(); }
  void ChargeMs(double cost_ms) override {
    // Under a wall clock real CPU time rules: a charge is a no-op.
    if (cost_ms <= 0 || virtual_clock_ == nullptr) return;
    // Virtual time: the cost accrues to the CURRENT SLICE and the
    // scheduler busy-parks the task until now + accrued once the
    // slice ends. Crucially the charge does NOT advance the global
    // clock inline — an operator that spends 4 ms on a tuple is
    // unavailable for 4 ms while everyone else runs at today's
    // instant, which is what makes a charged operator genuinely
    // SLOWER than its free neighbors (the paper's divergence
    // dynamics depend on exactly that). Whole ms accrue; the
    // fractional remainder carries across slices so e.g. 0.25 ms
    // charges still sum exactly. Single-threaded by the manual-mode
    // contract, so no synchronization.
    charge_carry_ += cost_ms;
    const TimeMs whole = static_cast<TimeMs>(charge_carry_);
    if (whole > 0) {
      charge_carry_ -= static_cast<double>(whole);
      slice_charge_ms_ += whole;
    }
  }
  int PurgeInput(int in_port, const PunctPattern& pattern) override {
    return rt_->input_conn(op_id_, in_port)
        ->data->PurgeMatching(pattern);
  }
  int PrioritizeInput(int in_port, const PunctPattern& pattern) override {
    return rt_->input_conn(op_id_, in_port)
        ->data->PromoteMatching(pattern);
  }

  /// Whole ms charged by the slice that just ran; resets the counter.
  TimeMs TakeSliceChargeMs() {
    const TimeMs c = slice_charge_ms_;
    slice_charge_ms_ = 0;
    return c;
  }

 private:
  PlanRuntime* rt_;
  int64_t op_id_;
  const Clock* clock_;
  VirtualClock* virtual_clock_;
  double charge_carry_ = 0.0;
  TimeMs slice_charge_ms_ = 0;
};

}  // namespace

/// One operator task. All mutable fields are guarded by the scheduler
/// mutex except those only touched by the slice that owns the task
/// while it is RUNNING (source_eos_emitted) — the RUNNING transition
/// itself hands them off under the mutex.
struct Scheduler::Task {
  QueryRun* run = nullptr;
  int64_t op_id = -1;
  uint64_t token = 0;  // consumer-affinity tripwire token (nonzero)
  int affinity = -1;   // pinned worker ring index; -1 = any worker
  TaskState state = TaskState::kWaiting;
  bool wake_pending = false;      // wake arrived while RUNNING
  bool busy = false;  // WAITING because of charged work, not idleness
  bool source_eos_emitted = false;
  TimeMs due_ms = -1;  // >= 0: parked until this instant (pace / busy)
  uint32_t worker_mask = 0;
  Status status;

  // ---- Checkpoint-barrier bookkeeping ----
  // barrier_seen is mutated ONLY under mu_ (hit merges in
  // OnSliceDoneLocked, resets at StartCheckpoint / ServiceCheckpoint);
  // the running slice reads its own snapshot, slice_barrier_seen,
  // copied under mu_ at pop (PrepareSliceLocked) — the same
  // hand-off-at-pop ownership rule as source_eos_emitted.
  std::vector<bool> barrier_seen;        // per input port, current epoch
  std::vector<bool> slice_barrier_seen;  // slice-owned copy of the above
  bool ckpt_parked = false;  // WAITING at the barrier, not idleness
  // Barrier id the running slice acts for; 0 = no checkpoint. A source
  // slice with a nonzero epoch has never emitted this epoch's barrier
  // (it parks immediately after emitting, and a new epoch is only
  // issued after the previous checkpoint finished or aborted).
  int64_t ckpt_epoch = 0;

  // ---- Output credit ----
  // Fixed at Submit, before any slice: each output edge with the task
  // consuming it, the input queues, the distinct tasks feeding them,
  // and whether the outputs are copies (Operator::outputs_are_copies).
  std::vector<std::pair<const Connection*, Task*>> out_edges;
  std::vector<const DataQueue*> in_queues;
  std::vector<Task*> producers;
  bool outputs_are_copies = false;
  // Written under mu_; atomic because other tasks' slices read them
  // (they must not read `state`). A killed consumer's edges stop
  // costing credit; a credit-parked producer still holds a backlog.
  std::atomic<bool> killed{false};
  std::atomic<bool> credit_parked{false};  // WAITING for output credit
  // Parked with staged output it did not flush because a producer still
  // held a backlog; re-checked whenever a producer's slice ends (mu_).
  bool flush_deferred = false;
};

struct Scheduler::QueryRun {
  QueryId id = 0;
  QueryPlan* plan = nullptr;
  std::unique_ptr<PlanRuntime> rt;
  std::vector<std::unique_ptr<PooledContext>> contexts;
  std::vector<std::unique_ptr<Task>> tasks;
  int live = 0;      // tasks not yet KILLED
  bool failed = false;
  bool done = false;
  bool closed = false;  // operators Close()d (by the first Wait)
  Status status;
  TimeMs start_ms = 0;  // pacing origin

  // ---- Active checkpoint (at most one per query) ----
  bool ckpt_active = false;
  // Quiesced and claimed by a serializer; cleared when the snapshot
  // file is published and tasks are unparked.
  bool ckpt_serializing = false;
  int64_t ckpt_barrier_id = 0;
  CheckpointOptions ckpt_opts;
  int ckpt_parked_count = 0;  // tasks parked at the barrier
  bool ckpt_result_ready = false;
  Status ckpt_result;
};

struct Scheduler::SliceResult {
  bool did_work = false;
  bool finished = false;
  TimeMs due_ms = -1;   // >= 0: paced source, park until then
  TimeMs busy_ms = 0;   // virtual ms the slice charged (busy-park)
  // Slice reached its barrier alignment (source: emitted the barrier;
  // other: saw it on every live input and forwarded it) — park until
  // the snapshot is written.
  bool ckpt_parked = false;
  // Slice stopped before new work because an output edge holds the
  // credit limit — park until a consumer's pops release it.
  bool credit_blocked = false;
  // Slice ran out of input but left its staged output unflushed: a
  // producer still holds a backlog, so more input is on its way.
  bool flush_deferred = false;
  // Barrier punctuations stripped from popped pages: (port, barrier
  // id). Merged into Task::barrier_seen under mu_ at slice end — also
  // catches the pool-mode race where a slice that began before
  // StartCheckpoint (epoch 0) pops a freshly injected barrier.
  std::vector<std::pair<int, int64_t>> barrier_hits;
  Status status;
};

Scheduler::Scheduler(SchedulerOptions options) : options_(options) {
  if (options_.virtual_clock != nullptr) {
    // Virtual time is only coherent when slices are serialized.
    options_.manual = true;
    clock_ = options_.virtual_clock;
  } else {
    clock_ = &wall_clock_;
  }
  if (!options_.manual) {
    const int n = std::max(1, options_.num_workers);
    pinned_.resize(static_cast<size_t>(n));
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  ckpt_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

Result<QueryId> Scheduler::Submit(QueryPlan* plan) {
  return SubmitInternal(plan, nullptr);
}

Result<QueryId> Scheduler::SubmitRecovered(QueryPlan* plan,
                                           const std::string& path) {
  return SubmitInternal(plan, &path);
}

Result<QueryId> Scheduler::SubmitInternal(QueryPlan* plan,
                                          const std::string* snapshot_path) {
  if (!plan->finalized()) {
    Status st = plan->Finalize();
    if (!st.ok()) return st;
  }
  DataQueueOptions qopts = options_.queue;
  // Non-blocking pushes are mandatory on a fixed pool (see header).
  qopts.max_pages = 0;
  auto rt_result = PlanRuntime::Create(
      plan, qopts,
      options_.use_lockfree_queues
          ? EdgeTransportPolicy::kSpscChainWhereEligible
          : EdgeTransportPolicy::kMutexDeque);
  if (!rt_result.ok()) return rt_result.status();

  auto run = std::make_unique<QueryRun>();
  run->plan = plan;
  run->rt = rt_result.MoveValue();
  run->start_ms = clock_->NowMs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    run->id = next_query_id_++;
  }
  const int n = plan->num_operators();
  run->live = n;
  for (int64_t id = 0; id < n; ++id) {
    run->contexts.push_back(std::make_unique<PooledContext>(
        run->rt.get(), id, clock_, options_.virtual_clock));
    auto task = std::make_unique<Task>();
    task->run = run.get();
    task->op_id = id;
    // Nonzero and unique across (query, op): the tripwire token.
    task->token = (static_cast<uint64_t>(run->id) << 20) ^
                  static_cast<uint64_t>(id + 1);
    task->affinity = plan->op(id)->scheduler_affinity();
    task->outputs_are_copies = plan->op(id)->outputs_are_copies();
    task->barrier_seen.assign(
        static_cast<size_t>(plan->op(id)->num_inputs()), false);
    run->tasks.push_back(std::move(task));
  }
  for (const auto& conn : run->rt->connections()) {
    Task* producer = run->tasks[static_cast<size_t>(conn->producer_op)].get();
    Task* consumer = run->tasks[static_cast<size_t>(conn->consumer_op)].get();
    producer->out_edges.emplace_back(conn.get(), consumer);
    consumer->in_queues.push_back(conn->data.get());
    if (std::find(consumer->producers.begin(), consumer->producers.end(),
                  producer) == consumer->producers.end()) {
      consumer->producers.push_back(producer);
    }
  }

  // Wire wakes and pin consumer affinity. Emissions during Open (and
  // any notifier they fire) are safe here: tasks exist and Wake takes
  // the scheduler mutex, which is not held.
  for (int64_t id = 0; id < n; ++id) {
    Operator* op = plan->op(id);
    Task* task = run->tasks[static_cast<size_t>(id)].get();
    for (int p = 0; p < op->num_inputs(); ++p) {
      Connection* conn = run->rt->input_conn(id, p);
      conn->data->set_consumer_affinity_token(task->token);
      conn->data->SetConsumerNotifier([this, task] { Wake(task); });
    }
    for (int p = 0; p < op->num_outputs(); ++p) {
      run->rt->output_conn(id, p)->control->SetNotifier(
          [this, task] { Wake(task); });
    }
    if (op->is_source()) {
      // External-input sources park when idle (SourcePoll::kIdle);
      // their transport fires this when bytes arrive.
      static_cast<SourceOperator*>(op)->SetWakeNotifier(
          [this, task] { Wake(task); });
    }
  }
  for (int64_t id = 0; id < n; ++id) {
    Status st = plan->op(id)->Open(
        run->contexts[static_cast<size_t>(id)].get());
    if (!st.ok()) return st;
  }

  if (snapshot_path != nullptr) {
    // Recovery: rewind operators to the checkpoint cut and refill the
    // edge queues before any slice runs. Sources resume from their
    // restored offsets; operators already finished at the checkpoint
    // are killed by their first slice (op->finished()).
    Status st = RestorePlanAndQueues(*snapshot_path, plan, run->rt.get());
    if (!st.ok()) return st;
  }

  QueryId qid = run->id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.tasks_created += static_cast<uint64_t>(n);
    for (auto& task : run->tasks) {
      // A wake during Open may already have queued the task.
      if (task->state == TaskState::kWaiting) EnqueueLocked(task.get());
    }
    runs_.push_back(std::move(run));
  }
  work_cv_.notify_all();
  return qid;
}

void Scheduler::EnqueueLocked(Task* t) {
  t->state = TaskState::kQueued;
  t->due_ms = -1;
  t->busy = false;
  if (!options_.manual && t->affinity >= 0 && !pinned_.empty()) {
    pinned_[static_cast<size_t>(t->affinity) % pinned_.size()]
        .push_back(t);
  } else {
    ready_.push_back(t);
  }
  if (idle_workers_ > 0) work_cv_.notify_all();
}

void Scheduler::WakeLocked(Task* t) {
  switch (t->state) {
    case TaskState::kKilled:
    case TaskState::kQueued:
      ++stats_.wakes_ignored;
      return;
    case TaskState::kRunning:
      // Coalesce: the slice's completion re-enqueues the task, so the
      // event this wake announces is re-checked — never lost.
      t->wake_pending = true;
      ++stats_.wakes_coalesced;
      return;
    case TaskState::kWaiting:
      if (t->credit_parked.load(std::memory_order_relaxed)) {
        MaybeReleaseCreditLocked(t);
        if (t->state == TaskState::kQueued) {
          ++stats_.wakes_delivered;
        } else {
          // Input or source data for a task still out of credit: its
          // release runs it unconditionally, so nothing is lost.
          t->wake_pending = true;
          ++stats_.wakes_coalesced;
        }
        return;
      }
      if (t->busy || t->ckpt_parked) {
        // Busy-parked (virtual time) or parked at a checkpoint
        // barrier: the task cannot react until released. Both
        // releases re-enqueue unconditionally, so the event is not
        // lost.
        t->wake_pending = true;
        ++stats_.wakes_coalesced;
        return;
      }
      ++stats_.wakes_delivered;
      EnqueueLocked(t);
      return;
  }
}

void Scheduler::Wake(Task* t) {
  if (wake_hook_) {
    // Manual mode only (single-threaded): the harness may swallow the
    // wake and re-inject it later to explore reorderings.
    if (wake_hook_(t->run->id, t->op_id)) return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  WakeLocked(t);
}

bool Scheduler::CreditSpent(const Task* t) {
  // Any full edge stops a task, except that copies wait for every
  // edge: a stalled copy consumer must not starve the others. A
  // partitioner keeps the per-edge bound, since its one slow shard
  // would otherwise queue without limit.
  bool spent = false;
  for (const auto& [conn, consumer] : t->out_edges) {
    if (consumer->killed.load(std::memory_order_acquire)) continue;
    const bool full = conn->data->queued_pages() >= kOutputCreditPages;
    if (full != t->outputs_are_copies) return full;
    spent = full;
  }
  return spent;
}

bool Scheduler::CreditHoldsLocked(const Task* t) {
  // Only returned credit, an aligning checkpoint (its barriers must get
  // through) or a control message to serve moves a credit-parked task.
  if (t->run->ckpt_active || !CreditSpent(t)) return false;
  for (const auto& edge : t->out_edges) {
    if (edge.first->control->HasMessage()) return false;
  }
  return true;
}

bool Scheduler::UpstreamBacklogged(const Task* t) {
  for (const Task* p : t->producers) {
    if (p->credit_parked.load(std::memory_order_acquire)) return true;
    for (const DataQueue* q : p->in_queues) {
      if (q->queued_pages() > 0) return true;
    }
  }
  return false;
}

void Scheduler::RecheckDeferredFlushLocked(Task* t) {
  if (!t->flush_deferred || UpstreamBacklogged(t)) return;
  t->flush_deferred = false;
  WakeLocked(t);  // its next slice finds no backlog and flushes
}

void Scheduler::MaybeReleaseCreditLocked(Task* t) {
  if (!t->credit_parked.load(std::memory_order_relaxed) ||
      CreditHoldsLocked(t)) {
    return;
  }
  t->credit_parked.store(false, std::memory_order_relaxed);
  // The release runs the task unconditionally, which services every
  // wake it coalesced while parked.
  t->wake_pending = false;
  EnqueueLocked(t);
}

void Scheduler::KillTaskLocked(Task* t) {
  if (t->state == TaskState::kKilled) return;
  t->state = TaskState::kKilled;
  t->killed.store(true, std::memory_order_release);
  t->credit_parked.store(false, std::memory_order_relaxed);
  t->due_ms = -1;
  ++stats_.tasks_killed;
  // A dead consumer never pops again: its edges stop costing credit.
  for (Task* p : t->producers) MaybeReleaseCreditLocked(p);
  QueryRun* run = t->run;
  if (--run->live == 0) {
    run->done = true;
    done_cv_.notify_all();
  }
}

void Scheduler::FailRunLocked(QueryRun* run, const Status& status) {
  if (!run->failed) {
    run->failed = true;
    run->status = status;
  }
  // A pending checkpoint can never quiesce once tasks start dying —
  // fail it out so waiters unblock. (ckpt_serializing is impossible
  // here: serialization only starts with every task parked, so no
  // slice is running to fail.)
  AbortCheckpointLocked(run, status);
  // Kill everything not currently running; RUNNING tasks die at their
  // own OnSliceDoneLocked (they observe run->failed). Only THIS
  // query's tasks are touched: sibling queries sharing the pool keep
  // their tasks, queues, and ready-set entries untouched.
  for (auto& task : run->tasks) {
    if (task->state == TaskState::kQueued ||
        task->state == TaskState::kWaiting) {
      KillTaskLocked(task.get());
    }
  }
}

void Scheduler::AbortCheckpointLocked(QueryRun* run, const Status& status) {
  if (!run->ckpt_active || run->ckpt_serializing) return;
  run->ckpt_active = false;
  run->ckpt_parked_count = 0;
  run->ckpt_result = status.ok()
                         ? Status::Cancelled("query failed mid-checkpoint")
                         : status;
  run->ckpt_result_ready = true;
  for (auto& task : run->tasks) task->ckpt_parked = false;
  ckpt_cv_.notify_all();
}

Scheduler::SliceResult Scheduler::RunSlice(Task* t) {
  SliceResult r = RunSliceBody(t);
  if (options_.virtual_clock != nullptr) {
    r.busy_ms = t->run->contexts[static_cast<size_t>(t->op_id)]
                    ->TakeSliceChargeMs();
  }
  return r;
}

Scheduler::SliceResult Scheduler::RunSliceBody(Task* t) {
  SliceResult r;
  QueryRun* run = t->run;
  Operator* op = run->plan->op(t->op_id);
  PooledContext* ctx =
      run->contexts[static_cast<size_t>(t->op_id)].get();
  PlanRuntime* rt = run->rt.get();

  // 1. Control messages first — they are high priority (§5).
  for (int p = 0; p < op->num_outputs(); ++p) {
    ControlChannel* ch = rt->output_conn(t->op_id, p)->control.get();
    while (auto msg = ch->TryPop()) {
      r.status = op->ProcessControl(p, *msg);
      if (!r.status.ok()) return r;
      r.did_work = true;
    }
  }

  // 2. Sources produce a bounded batch (their drain budget).
  if (op->is_source()) {
    if (t->ckpt_epoch != 0) {
      // Checkpoint cut: inject the barrier on every output and park —
      // BEFORE the exhaustion check, so a drained-but-live source
      // still aligns the cut instead of finishing mid-checkpoint.
      // (This epoch's barrier cannot have been emitted yet: the source
      // parks right here and only wakes once the checkpoint is over.)
      r.status = rt->FlushStaged(t->op_id);
      if (!r.status.ok()) return r;
      for (int p = 0; p < op->num_outputs(); ++p) {
        rt->output_conn(t->op_id, p)->data->PushPunctuation(
            Punctuation::Barrier(t->ckpt_epoch));
      }
      r.ckpt_parked = true;
      return r;
    }
    if (t->source_eos_emitted) {
      r.finished = true;
      return r;
    }
    auto* src = static_cast<SourceOperator*>(op);
    const int batch = std::max(1, options_.source_batch_per_slice);
    for (int i = 0; i < batch; ++i) {
      if (CreditSpent(t)) {
        // What is staged stays staged: the consumer is busy anyway.
        r.credit_blocked = true;
        return r;
      }
      const SourcePoll poll = src->Poll();
      if (src->shutdown_requested() || poll == SourcePoll::kExhausted) {
        for (int p = 0; p < op->num_outputs(); ++p) ctx->EmitEos(p);
        t->source_eos_emitted = true;
        r.finished = true;
        return r;
      }
      if (poll == SourcePoll::kIdle) {
        // Open but drained: end the slice without finishing the
        // source. With no due time and no did_work the task parks
        // WAITING; the source's wake notifier (wired at submit)
        // re-enqueues it when input arrives — a wake racing this
        // slice is caught by the wake_pending requeue. What it emitted
        // so far must not wait for the next input to fill its page.
        r.status = rt->FlushStaged(t->op_id);
        return r;
      }
      if (options_.pace_sources) {
        std::optional<TimeMs> next = src->NextArrivalMs();
        const TimeMs due =
            run->start_ms +
            static_cast<TimeMs>(static_cast<double>(next.value_or(0)) *
                                options_.pace_scale);
        if (due > clock_->NowMs()) {
          r.due_ms = due;  // park until the arrival is due
          r.status = rt->FlushStaged(t->op_id);
          return r;
        }
      }
      r.status = src->ProduceNext();
      if (!r.status.ok()) return r;
      r.did_work = true;
    }
    return r;  // budget exhausted; did_work re-enqueues
  }

  // 3. Drain up to max_pages_per_wake pages per input — one batch
  // call per page — then end the slice (control is re-checked next
  // slice).
  const int nin = op->num_inputs();
  // Ports whose barrier arrived during THIS slice (sized only while a
  // checkpoint is active — the hot no-checkpoint path allocates
  // nothing).
  std::vector<bool> hit_now(
      t->ckpt_epoch != 0 ? static_cast<size_t>(nin) : 0, false);
  const int budget = std::max(1, options_.max_pages_per_wake);
  for (int round = 0; round < budget && !op->finished() && !r.credit_blocked;
       ++round) {
    bool popped_any = false;
    for (int p = 0; p < nin; ++p) {
      if (t->ckpt_epoch != 0 &&
          (t->slice_barrier_seen[static_cast<size_t>(p)] ||
           hit_now[static_cast<size_t>(p)])) {
        // Aligned port: everything behind it belongs to the next
        // epoch; it stays queued for the snapshot.
        continue;
      }
      DataQueue* q = rt->input_conn(t->op_id, p)->data.get();
      // Output credit gates the next input page. A checkpoint lifts it:
      // alignment must reach every barrier whatever the queues hold.
      if (t->ckpt_epoch == 0 && q->queued_pages() > 0 && CreditSpent(t)) {
        r.credit_blocked = true;
        break;
      }
      std::optional<Page> page = q->TryPopPage();
      if (!page) continue;
      popped_any = r.did_work = true;
      // A barrier punctuation flushes its page, so it can only be the
      // last element (columnar pages are tuples-only). Strip it —
      // operators never see barriers — and record the hit; the
      // remainder of the page is pre-cut data, processed normally.
      if (!page->is_columnar() && !page->empty()) {
        const StreamElement& last = page->elements().back();
        if (last.is_punct() && last.punct().is_barrier()) {
          const int64_t id = last.punct().barrier_id();
          r.barrier_hits.emplace_back(p, id);
          if (id == t->ckpt_epoch && !hit_now.empty()) {
            hit_now[static_cast<size_t>(p)] = true;
          }
          page->mutable_elements().pop_back();
        }
      }
      if (page->empty()) continue;
      r.status = op->ProcessPage(p, std::move(*page), nullptr);
      if (!r.status.ok()) return r;
    }
    if (!popped_any) break;
  }
  if (op->finished()) {
    r.finished = true;  // all inputs hit EOS
    return r;
  }
  // Out of credit with input left: not a park for lack of input, so
  // the staged output is not flushed either.
  if (r.credit_blocked) return r;
  if (t->ckpt_epoch != 0) {
    // Aligned on every live input (EOS ports are trivially aligned —
    // their producers are gone)? Forward the barrier and park; sinks
    // (no outputs) just park.
    bool aligned = true;
    for (int p = 0; p < nin; ++p) {
      if (!t->slice_barrier_seen[static_cast<size_t>(p)] &&
          !hit_now[static_cast<size_t>(p)] && !op->eos_seen(p)) {
        aligned = false;
        break;
      }
    }
    if (aligned) {
      // Staged rows are pre-cut data: they go out ahead of the barrier.
      r.status = rt->FlushStaged(t->op_id);
      if (!r.status.ok()) return r;
      for (int o = 0; o < op->num_outputs(); ++o) {
        rt->output_conn(t->op_id, o)->data->PushPunctuation(
            Punctuation::Barrier(t->ckpt_epoch));
      }
      r.ckpt_parked = true;
      return r;
    }
  }
  // The flush rule: output pages fill across input pages and go out
  // when full, before punctuation, at EOS — and here, when the task
  // runs out of input and is about to park. A task that keeps up
  // parks, and so flushes, after every page; under backlog its pages
  // fill instead. Output credit keeps a backlog upstream, so running
  // dry while a producer still holds one (out of credit, or with input
  // queued) is no end of a burst: the flush waits until the producer's
  // slice ends without it (OnSliceDoneLocked re-checks).
  if (!rt->HasInputPage(t->op_id)) {
    if (UpstreamBacklogged(t)) {
      r.flush_deferred = true;
    } else {
      r.status = rt->FlushStaged(t->op_id);
    }
  }
  return r;
}

void Scheduler::OnSliceDoneLocked(Task* t, const SliceResult& r,
                                  int worker) {
  SettleSliceLocked(t, r, worker);
  // The slice may have spent the backlog its consumers deferred their
  // flush for.
  for (const auto& edge : t->out_edges) {
    RecheckDeferredFlushLocked(edge.second);
  }
}

void Scheduler::SettleSliceLocked(Task* t, const SliceResult& r,
                                  int worker) {
  ++stats_.slices;
  if (worker >= 0 && worker < 32) {
    t->worker_mask |= (1u << static_cast<uint32_t>(worker));
  }
  QueryRun* run = t->run;
  // The slice's pops may have returned the credit its producers wait
  // for; released here, under mu_, so a producer's park re-check and
  // this release cannot both miss the pop.
  for (Task* p : t->producers) MaybeReleaseCreditLocked(p);
  // Merge the slice's barrier observations (recorded lock-free) into
  // the task. Hits from a superseded epoch — an aborted checkpoint's
  // stale barrier swallowed later — are dropped by the id match.
  if (!r.barrier_hits.empty() && run->ckpt_active) {
    for (const auto& hit : r.barrier_hits) {
      if (hit.second == run->ckpt_barrier_id && hit.first >= 0 &&
          static_cast<size_t>(hit.first) < t->barrier_seen.size()) {
        t->barrier_seen[static_cast<size_t>(hit.first)] = true;
      }
    }
  }
  if (!r.status.ok()) {
    t->status = r.status;
    FailRunLocked(t->run, r.status);
    KillTaskLocked(t);
    return;
  }
  if (t->run->failed || r.finished) {
    KillTaskLocked(t);
    return;
  }
  if (r.ckpt_parked) {
    if (run->ckpt_active && !run->ckpt_serializing &&
        t->ckpt_epoch == run->ckpt_barrier_id) {
      // Parked at the barrier until the snapshot is written. Pending
      // wakes stay flagged; the unpark re-enqueues unconditionally.
      // A virtual-time busy charge is subsumed by the (longer) park.
      t->state = TaskState::kWaiting;
      t->busy = false;
      t->due_ms = -1;
      t->ckpt_parked = true;
      ++run->ckpt_parked_count;
      return;
    }
    // The checkpoint this slice parked for is gone (aborted while the
    // slice ran) — resume normal scheduling; the emitted barrier is
    // swallowed downstream as a stale hit.
    EnqueueLocked(t);
    return;
  }
  if (r.busy_ms > 0) {
    // Virtual time: the slice charged processing cost, so the task is
    // busy — unavailable — until that cost has elapsed. Pending wakes
    // stay flagged and fold into the unconditional release enqueue.
    t->state = TaskState::kWaiting;
    t->busy = true;
    const TimeMs until = clock_->NowMs() + r.busy_ms;
    t->due_ms = (r.due_ms > until) ? r.due_ms : until;
    return;
  }
  if (r.credit_blocked) {
    // Re-check under mu_: a consumer may have popped since the slice
    // looked, and its release (also under mu_) saw no parked task.
    if (CreditHoldsLocked(t)) {
      t->state = TaskState::kWaiting;
      t->due_ms = -1;
      // Pending wakes fold into the release.
      t->credit_parked.store(true, std::memory_order_relaxed);
      ++stats_.credit_parks;
      return;
    }
    t->wake_pending = false;
    EnqueueLocked(t);
    return;
  }
  if (r.flush_deferred) {
    // Re-check under mu_: the backlog may have drained since the slice
    // looked, before this task was marked for the producers' re-check.
    if (UpstreamBacklogged(t)) {
      t->flush_deferred = true;
    } else {
      t->wake_pending = true;  // run again, and flush
    }
  }
  if (t->wake_pending) {
    // A wake raced the slice; whatever it announced has not been
    // looked at yet — run again.
    t->wake_pending = false;
    EnqueueLocked(t);
    return;
  }
  if (r.due_ms >= 0) {
    t->state = TaskState::kWaiting;
    t->due_ms = r.due_ms;
    return;
  }
  if (r.did_work) {
    ++stats_.requeues;
    EnqueueLocked(t);
    return;
  }
  t->state = TaskState::kWaiting;
  t->due_ms = -1;
}

Scheduler::Task* Scheduler::PopReadyLocked(int worker) {
  auto pop_from = [](std::deque<Task*>& dq) -> Task* {
    while (!dq.empty()) {
      Task* t = dq.front();
      dq.pop_front();
      if (t->state == TaskState::kQueued) return t;
      // Stale entry: killed while queued. Drop it.
    }
    return nullptr;
  };
  Task* t = nullptr;
  if (worker >= 0 && worker < static_cast<int>(pinned_.size())) {
    t = pop_from(pinned_[static_cast<size_t>(worker)]);
  }
  if (t == nullptr) t = pop_from(ready_);
  if (t != nullptr) PrepareSliceLocked(t);
  return t;
}

void Scheduler::PrepareSliceLocked(Task* t) {
  t->state = TaskState::kRunning;
  t->flush_deferred = false;  // the slice decides afresh
  // Checkpoint epoch hand-off: the slice acts on the epoch visible at
  // pop time; a checkpoint starting mid-slice reaches the task on its
  // next pop (its barrier pages are still caught via barrier_hits).
  QueryRun* run = t->run;
  if (run->ckpt_active && !run->ckpt_serializing) {
    t->ckpt_epoch = run->ckpt_barrier_id;
    t->slice_barrier_seen = t->barrier_seen;
  } else {
    t->ckpt_epoch = 0;
  }
}

void Scheduler::WorkerLoop(int worker) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (options_.pace_sources) PromoteDueLocked(clock_->NowMs());
    Task* t = PopReadyLocked(worker);
    if (t != nullptr) {
      lock.unlock();
      // The thread token makes the consumer-affinity tripwire attest
      // that only this task drains its pinned input queues.
      DataQueue::SetThreadConsumerToken(t->token);
      SliceResult r = RunSlice(t);
      DataQueue::SetThreadConsumerToken(0);
      lock.lock();
      OnSliceDoneLocked(t, r, worker);
      // This slice may have been the last one a pending checkpoint
      // was waiting on (park or kill) — serialize if so.
      if (QueryRun* ck = FindQuiescedCheckpointLocked()) {
        lock.unlock();
        ServiceCheckpoint(ck);
        lock.lock();
      }
      continue;
    }
    // Idle: timed wait (same missed-notify-costs-latency-never-
    // correctness idiom as the threaded executor's wake objects, and
    // the poll that releases paced sources when their time comes).
    ++idle_workers_;
    work_cv_.wait_for(lock, std::chrono::milliseconds(2));
    --idle_workers_;
  }
}

Status Scheduler::Wait(QueryId id, double timeout_ms) {
  QueryRun* run = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    run = FindRunLocked(id);
    if (run == nullptr) {
      return Status::NotFound("unknown query id");
    }
    if (options_.manual) {
      if (!run->done) {
        return Status::FailedPrecondition(
            "manual-mode query not finished; drive the scheduler "
            "(ReadyCount/StepReadyAt) to completion first");
      }
    } else if (timeout_ms >= 0) {
      // Stall watchdog: a wedged plan (operator swallowing EOS, lost
      // wake, live-locked feedback loop) trips the deadline and gets
      // diagnosed instead of hanging the caller forever.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(timeout_ms));
      if (!done_cv_.wait_until(lock, deadline,
                               [&] { return run->done || stop_; })) {
        return Status::DeadlineExceeded(
            "query " + std::to_string(id) + " still running after " +
            std::to_string(timeout_ms) + " ms\n" + StallReportLocked());
      }
      if (!run->done) {
        return Status::Cancelled("scheduler shut down before query end");
      }
    } else {
      done_cv_.wait(lock, [&] { return run->done || stop_; });
      if (!run->done) {
        return Status::Cancelled("scheduler shut down before query end");
      }
    }
    if (run->closed) return run->status;
    run->closed = true;
  }
  // Close outside the mutex: operators may flush or allocate.
  Status st = run->status;
  for (int64_t op_id = 0; op_id < run->plan->num_operators(); ++op_id) {
    Status cst = run->plan->op(op_id)->Close();
    if (st.ok() && !cst.ok()) st = cst;
  }
  std::lock_guard<std::mutex> lock(mu_);
  run->status = st;
  return st;
}

bool Scheduler::Done(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  return run != nullptr && run->done;
}

bool Scheduler::AllDone() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& run : runs_) {
    if (!run->done) return false;
  }
  return true;
}

void Scheduler::WakeAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& run : runs_) {
    if (run->done) continue;
    for (const auto& task : run->tasks) WakeLocked(task.get());
  }
}

void Scheduler::PruneKilledLocked() {
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [](const Task* t) {
                                return t->state != TaskState::kQueued;
                              }),
               ready_.end());
}

size_t Scheduler::ReadyCount() {
  std::lock_guard<std::mutex> lock(mu_);
  PruneKilledLocked();
  return ready_.size();
}

Status Scheduler::StepReadyAt(size_t index) {
  if (!options_.manual) {
    return Status::FailedPrecondition(
        "StepReadyAt requires manual mode");
  }
  Task* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PruneKilledLocked();
    if (index >= ready_.size()) {
      return Status::OutOfRange("ready index out of range");
    }
    t = ready_[index];
    ready_.erase(ready_.begin() + static_cast<ptrdiff_t>(index));
    PrepareSliceLocked(t);
  }
  DataQueue::SetThreadConsumerToken(t->token);
  SliceResult r = RunSlice(t);
  DataQueue::SetThreadConsumerToken(0);
  QueryRun* ck = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    OnSliceDoneLocked(t, r, /*worker=*/-1);
    ck = FindQuiescedCheckpointLocked();
  }
  // Manual mode: serialize inline (single-threaded by contract), so
  // the very next ReadyCount sees the unparked tasks and the harness
  // drive loop never stalls on a quiesced checkpoint.
  if (ck != nullptr) ServiceCheckpoint(ck);
  return Status::OK();
}

Status Scheduler::RunManual() {
  if (!options_.manual) {
    return Status::FailedPrecondition("RunManual requires manual mode");
  }
  while (!AllDone()) {
    if (ReadyCount() > 0) {
      NSTREAM_RETURN_NOT_OK(StepReadyAt(0));
      continue;
    }
    const std::optional<TimeMs> due = NextDueMs();
    if (!due.has_value() || options_.virtual_clock == nullptr) {
      return Status::FailedPrecondition(
          "manual drive stalled: no task is ready or due\n" +
          StallReport());
    }
    options_.virtual_clock->AdvanceTo(*due);
    ReleaseDue(*due);
  }
  return Status::OK();
}

int Scheduler::PromoteDueLocked(TimeMs now_ms) {
  int released = 0;
  for (const auto& run : runs_) {
    if (run->done) continue;
    for (const auto& task : run->tasks) {
      Task* t = task.get();
      if (t->state == TaskState::kWaiting && t->due_ms >= 0 &&
          t->due_ms <= now_ms) {
        ++stats_.wakes_delivered;
        // The release re-enqueues unconditionally, so any wake that
        // coalesced into a busy window is serviced by the very next
        // slice — consume the flag rather than replaying it later.
        t->wake_pending = false;
        EnqueueLocked(t);
        ++released;
      }
    }
  }
  return released;
}

int Scheduler::ReleaseDue(TimeMs now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  return PromoteDueLocked(now_ms);
}

std::optional<TimeMs> Scheduler::NextDueLocked() const {
  std::optional<TimeMs> best;
  for (const auto& run : runs_) {
    if (run->done) continue;
    for (const auto& task : run->tasks) {
      if (task->state == TaskState::kWaiting && task->due_ms >= 0 &&
          (!best.has_value() || task->due_ms < *best)) {
        best = task->due_ms;
      }
    }
  }
  return best;
}

std::optional<TimeMs> Scheduler::NextDueMs() {
  std::lock_guard<std::mutex> lock(mu_);
  return NextDueLocked();
}

void Scheduler::SetWakeHook(WakeHook hook) {
  NSTREAM_CHECK(options_.manual)
      << "SetWakeHook is a manual-mode (harness) facility";
  wake_hook_ = std::move(hook);
}

void Scheduler::InjectWake(QueryId id, int64_t op_id) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  if (run == nullptr || op_id < 0 ||
      op_id >= static_cast<int64_t>(run->tasks.size())) {
    return;
  }
  WakeLocked(run->tasks[static_cast<size_t>(op_id)].get());
}

Scheduler::QueryRun* Scheduler::FindRunLocked(QueryId id) const {
  for (const auto& run : runs_) {
    if (run->id == id) return run.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Punctuation-aligned checkpointing
// ---------------------------------------------------------------------------

Status Scheduler::StartCheckpoint(QueryId id, CheckpointOptions opts) {
  if (opts.path.empty()) {
    return Status::InvalidArgument("checkpoint path is empty");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    QueryRun* run = FindRunLocked(id);
    if (run == nullptr) return Status::NotFound("unknown query id");
    if (run->failed) return run->status;
    if (run->done) {
      return Status::FailedPrecondition(
          "query already finished; nothing to checkpoint");
    }
    if (run->ckpt_active) {
      return Status::FailedPrecondition(
          "a checkpoint is already in progress for this query");
    }
    run->ckpt_active = true;
    run->ckpt_serializing = false;
    run->ckpt_result_ready = false;
    run->ckpt_barrier_id = next_barrier_id_++;
    run->ckpt_opts = std::move(opts);
    run->ckpt_parked_count = 0;
    for (auto& task : run->tasks) {
      Task* t = task.get();
      t->ckpt_parked = false;
      // Safe against a RUNNING slice: slices only read their own
      // slice_barrier_seen copy, never this vector.
      t->barrier_seen.assign(t->barrier_seen.size(), false);
      // Wake everything so idle sources emit their barrier promptly.
      // Direct WakeLocked, not Wake: checkpoint wakes bypass the
      // harness wake hook (they are scheduler-internal, not
      // data-arrival events the harness wants to reorder).
      if (t->state != TaskState::kKilled) WakeLocked(t);
    }
  }
  work_cv_.notify_all();
  return Status::OK();
}

std::optional<Status> Scheduler::CheckpointResult(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  if (run == nullptr) return Status::NotFound("unknown query id");
  if (!run->ckpt_result_ready) return std::nullopt;
  run->ckpt_result_ready = false;
  return run->ckpt_result;
}

Status Scheduler::Checkpoint(QueryId id, const std::string& path) {
  if (options_.manual) {
    return Status::FailedPrecondition(
        "blocking Checkpoint needs pool workers; in manual mode use "
        "StartCheckpoint + drive + CheckpointResult");
  }
  NSTREAM_RETURN_NOT_OK(StartCheckpoint(id, CheckpointOptions{path, {}}));
  std::unique_lock<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  ckpt_cv_.wait(lock, [&] { return run->ckpt_result_ready || stop_; });
  if (!run->ckpt_result_ready) {
    return Status::Cancelled("scheduler shut down during checkpoint");
  }
  run->ckpt_result_ready = false;
  return run->ckpt_result;
}

Scheduler::QueryRun* Scheduler::FindQuiescedCheckpointLocked() {
  for (const auto& run : runs_) {
    if (run->ckpt_active && !run->ckpt_serializing &&
        run->ckpt_parked_count == run->live) {
      // live == 0 is a valid quiesce: every remaining task finished
      // during the checkpoint — the snapshot captures the final state.
      run->ckpt_serializing = true;
      return run.get();
    }
  }
  return nullptr;
}

void Scheduler::ServiceCheckpoint(QueryRun* run) {
  // Every task of this query is parked or killed and this thread holds
  // the ckpt_serializing claim, so operator state and queue internals
  // are quiescent; the park transitions went through mu_, giving this
  // thread happens-before on all task-written state.
  Status st = CheckpointCoordinator::WriteSnapshot(run->plan, run->rt.get(),
                                                  run->ckpt_opts);
  {
    std::lock_guard<std::mutex> lock(mu_);
    run->ckpt_active = false;
    run->ckpt_serializing = false;
    run->ckpt_result = st;
    run->ckpt_result_ready = true;
    run->ckpt_parked_count = 0;
    for (auto& task : run->tasks) {
      Task* t = task.get();
      t->barrier_seen.assign(t->barrier_seen.size(), false);
      if (t->ckpt_parked) {
        t->ckpt_parked = false;
        t->wake_pending = false;  // the unconditional enqueue services it
        if (t->state == TaskState::kWaiting) EnqueueLocked(t);
      }
    }
  }
  ckpt_cv_.notify_all();
  work_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

std::string Scheduler::StallReport() {
  std::lock_guard<std::mutex> lock(mu_);
  return StallReportLocked();
}

std::string Scheduler::StallReportLocked() {
  std::ostringstream out;
  out << "=== scheduler stall report ===\n";
  for (const auto& run : runs_) {
    out << "query " << run->id << ": live " << run->live << "/"
        << run->tasks.size() << (run->failed ? " FAILED" : "")
        << (run->done ? " done" : "");
    if (run->ckpt_active) {
      out << " checkpoint barrier#" << run->ckpt_barrier_id << " parked "
          << run->ckpt_parked_count << "/" << run->live
          << (run->ckpt_serializing ? " serializing" : "");
    }
    out << "\n";
    for (const auto& task : run->tasks) {
      const Task* t = task.get();
      const Operator* op = run->plan->op(t->op_id);
      out << "  task " << t->op_id << " '" << op->name()
          << "' state=" << TaskStateName(t->state)
          << " wake_pending=" << (t->wake_pending ? 1 : 0)
          << " busy=" << (t->busy ? 1 : 0)
          << " ckpt_parked=" << (t->ckpt_parked ? 1 : 0)
          << " credit_parked="
          << (t->credit_parked.load(std::memory_order_relaxed) ? 1 : 0);
      if (t->due_ms >= 0) out << " due_ms=" << t->due_ms;
      if (!t->status.ok()) out << " status=" << t->status.ToString();
      out << "\n";
    }
    int edge = 0;
    for (const auto& conn : run->rt->connections()) {
      const ControlChannelStats cs = conn->control->stats();
      const uint64_t ctl_depth = cs.messages_pushed - cs.messages_popped;
      out << "  edge " << edge++ << " "
          << run->plan->op(conn->producer_op)->name() << ":"
          << conn->producer_port << " -> "
          << run->plan->op(conn->consumer_op)->name() << ":"
          << conn->consumer_port
          << " data_pages=" << conn->data->queued_pages()
          << " control_msgs=" << ctl_depth << "\n";
    }
  }
  return out.str();
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats out = stats_;
  for (const auto& run : runs_) {
    for (const auto& conn : run->rt->connections()) {
      out.affinity_violations += conn->data->affinity_violations();
    }
  }
  return out;
}

TaskState Scheduler::task_state(QueryId id, int64_t op_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  NSTREAM_CHECK(run != nullptr &&
                op_id < static_cast<int64_t>(run->tasks.size()))
      << "task_state: unknown (query, op)";
  return run->tasks[static_cast<size_t>(op_id)]->state;
}

uint32_t Scheduler::task_worker_mask(QueryId id, int64_t op_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  NSTREAM_CHECK(run != nullptr &&
                op_id < static_cast<int64_t>(run->tasks.size()))
      << "task_worker_mask: unknown (query, op)";
  return run->tasks[static_cast<size_t>(op_id)]->worker_mask;
}

bool Scheduler::task_credit_parked(QueryId id, int64_t op_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  NSTREAM_CHECK(run != nullptr &&
                op_id < static_cast<int64_t>(run->tasks.size()))
      << "task_credit_parked: unknown (query, op)";
  return run->tasks[static_cast<size_t>(op_id)]->credit_parked.load(
      std::memory_order_relaxed);
}

size_t Scheduler::input_queued_pages(QueryId id, int64_t op_id,
                                     int port) const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryRun* run = FindRunLocked(id);
  NSTREAM_CHECK(run != nullptr &&
                op_id < static_cast<int64_t>(run->tasks.size()) &&
                port >= 0 && port < run->plan->op(op_id)->num_inputs())
      << "input_queued_pages: unknown (query, op, port)";
  return run->rt->input_conn(op_id, port)->data->queued_pages();
}

Status RunInVirtualTime(QueryPlan* plan, SchedulerOptions options,
                        TimeMs* end_ms) {
  VirtualClock clock;
  options.virtual_clock = &clock;
  options.pace_sources = true;
  Scheduler sched(options);
  NSTREAM_ASSIGN_OR_RETURN(QueryId id, sched.Submit(plan));
  NSTREAM_RETURN_NOT_OK(sched.RunManual());
  if (end_ms != nullptr) *end_ms = clock.NowMs();
  return sched.Wait(id);
}

// ---------------------------------------------------------------------------
// PooledExecutor
// ---------------------------------------------------------------------------

PooledExecutor::PooledExecutor(PooledExecutorOptions options) {
  SchedulerOptions sopts;
  sopts.num_workers = options.pool_size;
  sopts.queue = options.queue;
  sopts.pace_sources = options.pace_sources;
  sopts.pace_scale = options.pace_scale;
  sopts.max_pages_per_wake = options.max_pages_per_wake;
  sopts.source_batch_per_slice = options.source_batch_per_slice;
  sopts.use_lockfree_queues = options.use_lockfree_queues;
  scheduler_ = std::make_unique<Scheduler>(sopts);
}

Status PooledExecutor::Run(QueryPlan* plan) {
  NSTREAM_ASSIGN_OR_RETURN(QueryId id, scheduler_->Submit(plan));
  return scheduler_->Wait(id);
}

Result<QueryId> PooledExecutor::Submit(QueryPlan* plan) {
  return scheduler_->Submit(plan);
}

Result<QueryId> PooledExecutor::SubmitRecovered(
    QueryPlan* plan, const std::string& snapshot_path) {
  return scheduler_->SubmitRecovered(plan, snapshot_path);
}

Status PooledExecutor::Wait(QueryId id, double timeout_ms) {
  return scheduler_->Wait(id, timeout_ms);
}

Status PooledExecutor::Checkpoint(QueryId id, const std::string& path) {
  return scheduler_->Checkpoint(id, path);
}

}  // namespace nstream
