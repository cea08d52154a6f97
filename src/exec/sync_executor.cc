#include "exec/sync_executor.h"

#include <vector>

#include "common/logging.h"

namespace nstream {
namespace {

// Safety valve: abort after this many rounds without progress.
constexpr int kMaxStalledRounds = 3;

class SyncContext final : public ExecContext {
 public:
  SyncContext(PlanRuntime* rt, int64_t op_id, TimeMs* now)
      : rt_(rt), op_id_(op_id), now_(now) {}

  void EmitTuple(int out_port, Tuple t) override {
    if (t.arrival_ms() < 0) t.set_arrival_ms(*now_);
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
      for (uint32_t i = 0, n = b->rows(); i < n; ++i) {
        if (arr[i] < 0) arr[i] = *now_;
      }
    } else {
      for (StreamElement& e : page.mutable_elements()) {
        if (e.mutable_tuple().arrival_ms() < 0) {
          e.mutable_tuple().set_arrival_ms(*now_);
        }
      }
    }
    rt_->output_conn(op_id_, out_port)->data->PushPage(std::move(page));
  }
  TupleArena* OpenPageArena(int out_port) override {
    return rt_->output_conn(op_id_, out_port)->data->OpenPageArena();
  }
  void EmitFeedback(int in_port, FeedbackPunctuation fb) override {
    rt_->input_conn(op_id_, in_port)
        ->control->Push(ControlMessage::Feedback(std::move(fb)));
  }
  void EmitControl(int in_port, ControlMessage msg) override {
    rt_->input_conn(op_id_, in_port)->control->Push(std::move(msg));
  }
  TimeMs NowMs() const override { return *now_; }
  void ChargeMs(double) override {}  // cost is real CPU time here
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
  TimeMs* now_;
};

}  // namespace

Status SyncExecutor::Run(QueryPlan* plan) {
  if (!plan->finalized()) {
    NSTREAM_RETURN_NOT_OK(plan->Finalize());
  }
  DataQueueOptions queue_options = options_.queue;
  EdgeTransportPolicy policy = EdgeTransportPolicy::kMutexDeque;
  if (queue_options.transport == DataQueueTransport::kMutexDeque) {
    // Everything runs on this one thread, so every edge is trivially
    // SPSC and the unbounded chain replaces the mutex deque. A caller
    // who pinned an explicit transport in options_.queue keeps it.
    policy = EdgeTransportPolicy::kSpscChainSingleThread;
  }
  NSTREAM_ASSIGN_OR_RETURN(
      std::unique_ptr<PlanRuntime> rt,
      PlanRuntime::Create(plan, queue_options, policy));

  const int n = plan->num_operators();
  std::vector<std::unique_ptr<SyncContext>> contexts;
  contexts.reserve(static_cast<size_t>(n));
  for (int64_t id = 0; id < n; ++id) {
    contexts.push_back(
        std::make_unique<SyncContext>(rt.get(), id, &now_ms_));
    NSTREAM_RETURN_NOT_OK(plan->op(id)->Open(contexts.back().get()));
  }

  std::vector<bool> source_done(static_cast<size_t>(n), false);
  int stalled = 0;

  auto all_drained = [&]() {
    for (int64_t id = 0; id < n; ++id) {
      if (plan->op(id)->is_source() &&
          !source_done[static_cast<size_t>(id)]) {
        return false;
      }
    }
    for (const auto& conn : rt->connections()) {
      if (!conn->data->Drained()) return false;
    }
    return true;
  };

  while (true) {
    bool progress = false;
    for (int64_t id : plan->topo_order()) {
      Operator* op = plan->op(id);

      // 1. Control messages are high priority: drain before data (§5).
      for (int p = 0; p < op->num_outputs(); ++p) {
        ControlChannel* ch = rt->output_conn(id, p)->control.get();
        while (auto msg = ch->TryPop()) {
          ++now_ms_;
          NSTREAM_RETURN_NOT_OK(op->ProcessControl(p, *msg));
          progress = true;
        }
      }

      // 2. Sources produce a bounded batch per round.
      if (op->is_source() && !source_done[static_cast<size_t>(id)]) {
        auto* src = static_cast<SourceOperator*>(op);
        for (int k = 0; k < options_.source_batch; ++k) {
          const SourcePoll poll = src->Poll();
          if (src->shutdown_requested() ||
              poll == SourcePoll::kExhausted) {
            for (int p = 0; p < op->num_outputs(); ++p) {
              contexts[static_cast<size_t>(id)]->EmitEos(p);
            }
            source_done[static_cast<size_t>(id)] = true;
            progress = true;
            break;
          }
          // Open but drained: no progress from this source this round,
          // so what it emitted so far goes out now. Single-threaded,
          // nothing can feed it mid-run, so a source that stays idle
          // trips the stall valve below instead of silently truncating
          // the stream.
          if (poll == SourcePoll::kIdle) {
            NSTREAM_RETURN_NOT_OK(rt->FlushStaged(id));
            break;
          }
          ++now_ms_;
          NSTREAM_RETURN_NOT_OK(src->ProduceNext());
          progress = true;
        }
      }

      // 3. Deliver at most one data page per input port per round,
      // handing the whole page to the operator in one call.
      for (int p = 0; p < op->num_inputs(); ++p) {
        DataQueue* q = rt->input_conn(id, p)->data.get();
        std::optional<Page> page = q->TryPopPage();
        if (!page) continue;
        progress = true;
        NSTREAM_RETURN_NOT_OK(
            op->ProcessPage(p, std::move(*page), &now_ms_));
      }
      // Out of input: the turn parks the operator, so its staged
      // output goes out (full pages, punctuation and EOS flush on
      // their own).
      if (!op->is_source() && !rt->HasInputPage(id)) {
        NSTREAM_RETURN_NOT_OK(rt->FlushStaged(id));
      }
    }

    if (!progress) {
      if (all_drained()) break;
      if (++stalled > kMaxStalledRounds) {
        return Status::Internal(
            "SyncExecutor stalled: no progress but plan not drained");
      }
    } else {
      stalled = 0;
    }
  }

  for (int64_t id = 0; id < n; ++id) {
    NSTREAM_RETURN_NOT_OK(plan->op(id)->Close());
  }
  return Status::OK();
}

}  // namespace nstream
