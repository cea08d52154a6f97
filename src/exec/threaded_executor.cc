#include "exec/threaded_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "exec/runtime.h"

namespace nstream {
namespace {

/// Per-operator sleep/wake object (§5: "each operator has an object
/// that it sleeps on when it has no work to do").
struct WakeObject {
  std::mutex mu;
  std::condition_variable cv;
  bool signaled = false;

  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mu);
      signaled = true;
    }
    cv.notify_one();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(2),
                [&] { return signaled; });
    signaled = false;
  }
};

class ThreadedContext final : public ExecContext {
 public:
  ThreadedContext(PlanRuntime* rt, int64_t op_id, const WallClock* clock)
      : rt_(rt), op_id_(op_id), clock_(clock) {}

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
    // Safe from the operator's own thread only — exactly the thread
    // that ever calls EmitTuple on this context: the open page is
    // producer-local.
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
  /// Real CPU time rules: a charge is a no-op under real threads.
  void ChargeMs(double) override {}
  int PurgeInput(int in_port, const PunctPattern& pattern) override {
    return rt_->input_conn(op_id_, in_port)
        ->data->PurgeMatching(pattern);
  }
  int PrioritizeInput(int in_port, const PunctPattern& pattern) override {
    return rt_->input_conn(op_id_, in_port)
        ->data->PromoteMatching(pattern);
  }

 private:
  PlanRuntime* rt_;
  int64_t op_id_;
  const WallClock* clock_;
};

}  // namespace

Status ThreadedExecutor::Run(QueryPlan* plan) {
  if (!plan->finalized()) {
    NSTREAM_RETURN_NOT_OK(plan->Finalize());
  }
  // Every edge has exactly one pushing and one popping thread; the
  // bound (64 pages by default) puts it on the lock-free SPSC ring.
  NSTREAM_ASSIGN_OR_RETURN(std::unique_ptr<PlanRuntime> rt,
                           PlanRuntime::Create(plan, options_.queue));

  const int n = plan->num_operators();
  WallClock clock;
  std::vector<std::unique_ptr<ThreadedContext>> contexts;
  std::vector<std::unique_ptr<WakeObject>> wakes;
  std::vector<Status> results(static_cast<size_t>(n));
  std::atomic<bool> abort{false};

  for (int64_t id = 0; id < n; ++id) {
    contexts.push_back(
        std::make_unique<ThreadedContext>(rt.get(), id, &clock));
    wakes.push_back(std::make_unique<WakeObject>());
  }
  // Wire wakeups: a new input page or output-side control message wakes
  // the operator's thread.
  for (int64_t id = 0; id < n; ++id) {
    Operator* op = plan->op(id);
    WakeObject* wake = wakes[static_cast<size_t>(id)].get();
    for (int p = 0; p < op->num_inputs(); ++p) {
      rt->input_conn(id, p)->data->SetConsumerNotifier(
          [wake] { wake->Notify(); });
    }
    for (int p = 0; p < op->num_outputs(); ++p) {
      rt->output_conn(id, p)->control->SetNotifier(
          [wake] { wake->Notify(); });
    }
    if (op->is_source()) {
      static_cast<SourceOperator*>(op)->SetWakeNotifier(
          [wake] { wake->Notify(); });
    }
  }
  for (int64_t id = 0; id < n; ++id) {
    NSTREAM_RETURN_NOT_OK(
        plan->op(id)->Open(contexts[static_cast<size_t>(id)].get()));
  }

  auto op_body = [&](int64_t id) -> Status {
    Operator* op = plan->op(id);
    ThreadedContext* ctx = contexts[static_cast<size_t>(id)].get();
    WakeObject* wake = wakes[static_cast<size_t>(id)].get();
    const TimeMs start_wall = clock.NowMs();

    bool source_done = !op->is_source();
    while (!abort.load(std::memory_order_relaxed)) {
      // 1. Control messages first — they are high priority (§5).
      bool did_work = false;
      for (int p = 0; p < op->num_outputs(); ++p) {
        ControlChannel* ch = rt->output_conn(id, p)->control.get();
        while (auto msg = ch->TryPop()) {
          NSTREAM_RETURN_NOT_OK(op->ProcessControl(p, *msg));
          did_work = true;
        }
      }

      // 2. Sources produce.
      if (op->is_source() && !source_done) {
        auto* src = static_cast<SourceOperator*>(op);
        const SourcePoll poll = src->Poll();
        if (src->shutdown_requested() ||
            poll == SourcePoll::kExhausted) {
          for (int p = 0; p < op->num_outputs(); ++p) ctx->EmitEos(p);
          source_done = true;
          break;  // a source's job ends with EOS
        }
        if (poll == SourcePoll::kIdle) {
          // Open but drained: park on the wake object. The source's
          // wake notifier (wired above) fires when input arrives; a
          // push racing this wait is caught by the wake latch. What it
          // emitted so far goes out first.
          NSTREAM_RETURN_NOT_OK(rt->FlushStaged(id));
          wake->Wait();
          continue;
        }
        if (options_.pace_sources) {
          const TimeMs due = start_wall + src->NextArrivalMs().value_or(0);
          const TimeMs now = clock.NowMs();
          if (due > now) {
            NSTREAM_RETURN_NOT_OK(rt->FlushStaged(id));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(due - now));
          }
        }
        NSTREAM_RETURN_NOT_OK(src->ProduceNext());
        continue;
      }

      // 3. Drain up to max_pages_per_wake pages per input — a single
      // batch call per page — then loop back to re-check control.
      const int budget = std::max(1, options_.max_pages_per_wake);
      for (int round = 0; round < budget && !op->finished(); ++round) {
        bool popped_any = false;
        for (int p = 0; p < op->num_inputs(); ++p) {
          DataQueue* q = rt->input_conn(id, p)->data.get();
          std::optional<Page> page = q->TryPopPage();
          if (!page) continue;
          popped_any = did_work = true;
          NSTREAM_RETURN_NOT_OK(
              op->ProcessPage(p, std::move(*page), nullptr));
        }
        if (!popped_any) break;
      }
      if (op->finished()) break;  // all inputs hit EOS
      // Out of input: flush staged output before parking (a page
      // racing in set the wake latch, so the wait returns at once).
      if (!rt->HasInputPage(id)) NSTREAM_RETURN_NOT_OK(rt->FlushStaged(id));
      if (!did_work) wake->Wait();
    }
    return Status::OK();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int64_t id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      Status st = op_body(id);
      results[static_cast<size_t>(id)] = st;
      if (!st.ok()) abort.store(true, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  for (int64_t id = 0; id < n; ++id) {
    NSTREAM_RETURN_NOT_OK(results[static_cast<size_t>(id)]);
  }
  for (int64_t id = 0; id < n; ++id) {
    NSTREAM_RETURN_NOT_OK(plan->op(id)->Close());
  }
  return Status::OK();
}

}  // namespace nstream
