#include "exec/sim_executor.h"

#include <cmath>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "stream/element.h"

namespace nstream {

// Safety valve against runaway plans.
constexpr uint64_t kMaxEvents = 500'000'000;

class SimExecutor::Impl {
 public:
  explicit Impl(SimExecutorOptions options) : options_(options) {}

  Status Run(QueryPlan* plan);

  double now() const { return now_; }
  uint64_t events() const { return events_; }

 private:
  enum class EventKind : uint8_t {
    kSourceProduce,
    kDeliver,   // data element arrives at (op, in port)
    kControl,   // control message arrives at (op, out port)
    kOpFree,    // operator finished its current unit of work
  };

  struct Event {
    double time = 0;
    uint64_t seq = 0;  // FIFO tie-break for determinism
    EventKind kind = EventKind::kOpFree;
    int64_t op = -1;
    int port = 0;
    StreamElement element;
    ControlMessage control;
  };

  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct OpState {
    // Merged FIFO of pending input elements (port, element).
    std::deque<std::pair<int, StreamElement>> buffer;
    double busy_until = 0;
    bool free_scheduled = false;
    bool source_done = false;
  };

  class SimContext;

  void Schedule(Event e) {
    e.seq = next_seq_++;
    heap_.push(std::move(e));
  }

  void ScheduleDeliver(int64_t op, int port, StreamElement el,
                       double time) {
    Event e;
    e.time = time;
    e.kind = EventKind::kDeliver;
    e.op = op;
    e.port = port;
    e.element = std::move(el);
    Schedule(std::move(e));
  }

  Status FireSourceProduce(int64_t op_id);
  Status FireDeliver(Event* e);
  Status FireControl(Event* e);
  Status FireOpFree(int64_t op_id);

  // Start buffered work if the operator is idle, or make sure an
  // OpFree event exists to resume it later.
  Status TryStart(int64_t op_id);
  // Pop and process the front buffered element; assumes idle.
  Status ProcessNext(int64_t op_id);
  // Invoke `fn` as op's handler at time `start` with base cost
  // `base_cost_ms`; route buffered emissions; optionally occupy the
  // operator (extend busy_until).
  Status RunHandler(int64_t op_id, double start, double base_cost_ms,
                    bool occupies, const std::function<Status()>& fn);

  SimExecutorOptions options_;
  QueryPlan* plan_ = nullptr;
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  std::vector<OpState> states_;
  std::unique_ptr<SimContext> ctx_;
  double now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_ = 0;

  friend class SimContext;
};

// Context shared by all operators; `current_op_` switches per handler.
class SimExecutor::Impl::SimContext final : public ExecContext {
 public:
  explicit SimContext(Impl* impl) : impl_(impl) {}

  void EmitTuple(int out_port, Tuple t) override {
    if (t.arrival_ms() < 0) {
      t.set_arrival_ms(static_cast<TimeMs>(std::llround(impl_->now_)));
    }
    emissions_.push_back({out_port, StreamElement::OfTuple(std::move(t))});
  }
  void EmitPunct(int out_port, Punctuation p) override {
    emissions_.push_back({out_port, StreamElement::OfPunct(std::move(p))});
  }
  void EmitEos(int out_port) override {
    emissions_.push_back({out_port, StreamElement::Eos()});
  }
  void EmitFeedback(int in_port, FeedbackPunctuation fb) override {
    control_out_.push_back(
        {in_port, ControlMessage::Feedback(std::move(fb))});
  }
  void EmitControl(int in_port, ControlMessage msg) override {
    control_out_.push_back({in_port, std::move(msg)});
  }
  TimeMs NowMs() const override {
    return static_cast<TimeMs>(std::llround(impl_->now_));
  }
  void ChargeMs(double cost_ms) override {
    if (cost_ms > 0) charged_ms_ += cost_ms;
  }

  int PurgeInput(int in_port, const PunctPattern& pattern) override {
    auto& buf = impl_->states_[static_cast<size_t>(current_op_)].buffer;
    int removed = 0;
    std::deque<std::pair<int, StreamElement>> kept;
    for (auto& pe : buf) {
      if (pe.first == in_port && pe.second.is_tuple() &&
          pattern.Matches(pe.second.tuple())) {
        ++removed;
      } else {
        kept.push_back(std::move(pe));
      }
    }
    buf = std::move(kept);
    return removed;
  }

  int PrioritizeInput(int in_port, const PunctPattern& pattern) override {
    auto& buf = impl_->states_[static_cast<size_t>(current_op_)].buffer;
    // Stable reorder, never moving a tuple across a punctuation or EOS
    // of the same port (punctuation semantics must survive).
    std::deque<std::pair<int, StreamElement>> out;
    std::vector<std::pair<int, StreamElement>> match, rest;
    int moved = 0;
    auto flush_segment = [&]() {
      if (!match.empty() && !rest.empty()) {
        moved += static_cast<int>(match.size());
      }
      for (auto& e : match) out.push_back(std::move(e));
      for (auto& e : rest) out.push_back(std::move(e));
      match.clear();
      rest.clear();
    };
    for (auto& pe : buf) {
      bool barrier = pe.first == in_port && !pe.second.is_tuple();
      if (barrier) {
        flush_segment();
        out.push_back(std::move(pe));
      } else if (pe.first == in_port && pe.second.is_tuple() &&
                 pattern.Matches(pe.second.tuple())) {
        match.push_back(std::move(pe));
      } else {
        rest.push_back(std::move(pe));
      }
    }
    flush_segment();
    buf = std::move(out);
    return moved;
  }

  // --- harness side ---
  void Begin(int64_t op) {
    current_op_ = op;
    charged_ms_ = 0;
    emissions_.clear();
    control_out_.clear();
  }
  double charged_ms() const { return charged_ms_; }

  struct Emission {
    int out_port;
    StreamElement element;
  };
  struct ControlOut {
    int in_port;
    ControlMessage msg;
  };
  std::vector<Emission>& emissions() { return emissions_; }
  std::vector<ControlOut>& control_out() { return control_out_; }

 private:
  Impl* impl_;
  int64_t current_op_ = -1;
  double charged_ms_ = 0;
  std::vector<Emission> emissions_;
  std::vector<ControlOut> control_out_;
};

Status SimExecutor::Impl::RunHandler(int64_t op_id, double start,
                                     double base_cost_ms, bool occupies,
                                     const std::function<Status()>& fn) {
  ctx_->Begin(op_id);
  NSTREAM_RETURN_NOT_OK(fn());
  double completion = start + base_cost_ms + ctx_->charged_ms();
  OpState& st = states_[static_cast<size_t>(op_id)];
  if (occupies) {
    st.busy_until = completion;
  }
  // Data emissions become visible downstream at completion.
  for (auto& em : ctx_->emissions()) {
    int edge = plan_->edge_out_of(op_id, em.out_port);
    NSTREAM_CHECK(edge >= 0) << "emission on unwired port";
    const PlanEdge& pe = plan_->edges()[static_cast<size_t>(edge)];
    ScheduleDeliver(pe.consumer, pe.consumer_port, std::move(em.element),
                    completion);
  }
  // Control emissions travel upstream out-of-band.
  for (auto& cm : ctx_->control_out()) {
    int edge = plan_->edge_into(op_id, cm.in_port);
    NSTREAM_CHECK(edge >= 0) << "control on unwired input";
    const PlanEdge& pe = plan_->edges()[static_cast<size_t>(edge)];
    Event e;
    e.time = completion + options_.control_latency_ms;
    e.kind = EventKind::kControl;
    e.op = pe.producer;
    e.port = pe.producer_port;
    e.control = std::move(cm.msg);
    Schedule(std::move(e));
  }
  if (occupies) {
    Event e;
    e.time = completion;
    e.kind = EventKind::kOpFree;
    e.op = op_id;
    Schedule(std::move(e));
    st.free_scheduled = true;
  }
  return Status::OK();
}

Status SimExecutor::Impl::FireSourceProduce(int64_t op_id) {
  auto* src = static_cast<SourceOperator*>(plan_->op(op_id));
  OpState& st = states_[static_cast<size_t>(op_id)];
  if (st.source_done) return Status::OK();
  std::optional<TimeMs> next = src->NextArrivalMs();
  if (src->shutdown_requested() || !next.has_value()) {
    st.source_done = true;
    return RunHandler(op_id, now_, 0.0, /*occupies=*/false, [&]() {
      for (int p = 0; p < src->num_outputs(); ++p) ctx_->EmitEos(p);
      return Status::OK();
    });
  }
  NSTREAM_RETURN_NOT_OK(RunHandler(op_id, now_, 0.0, /*occupies=*/false,
                                   [&]() { return src->ProduceNext(); }));
  std::optional<TimeMs> after = src->NextArrivalMs();
  Event e;
  e.kind = EventKind::kSourceProduce;
  e.op = op_id;
  if (after.has_value() && !src->shutdown_requested()) {
    e.time = std::max(now_, static_cast<double>(*after));
  } else {
    e.time = now_;  // fire once more to emit EOS
  }
  Schedule(std::move(e));
  return Status::OK();
}

Status SimExecutor::Impl::FireDeliver(Event* e) {
  OpState& st = states_[static_cast<size_t>(e->op)];
  st.buffer.emplace_back(e->port, std::move(e->element));
  return TryStart(e->op);
}

Status SimExecutor::Impl::FireControl(Event* e) {
  // Control is out-of-band and high-priority: it acts on the operator
  // immediately, ahead of all buffered data, and does not occupy the
  // operator's processing resource (metadata-only work).
  Operator* op = plan_->op(e->op);
  return RunHandler(e->op, now_, options_.cost.PunctCostMs(),
                    /*occupies=*/false, [&]() {
                      return op->ProcessControl(e->port, e->control);
                    });
}

Status SimExecutor::Impl::TryStart(int64_t op_id) {
  OpState& st = states_[static_cast<size_t>(op_id)];
  if (st.free_scheduled || st.buffer.empty()) return Status::OK();
  if (st.busy_until > now_) {
    Event e;
    e.time = st.busy_until;
    e.kind = EventKind::kOpFree;
    e.op = op_id;
    Schedule(std::move(e));
    st.free_scheduled = true;
    return Status::OK();
  }
  return ProcessNext(op_id);
}

Status SimExecutor::Impl::ProcessNext(int64_t op_id) {
  OpState& st = states_[static_cast<size_t>(op_id)];
  NSTREAM_DCHECK(!st.buffer.empty());
  auto [port, element] = std::move(st.buffer.front());
  st.buffer.pop_front();
  Operator* op = plan_->op(op_id);
  switch (element.kind()) {
    case ElementKind::kTuple: {
      ++op->mutable_stats()->tuples_in;
      double cost = options_.cost.TupleCostMs();
      Tuple t = std::move(element.mutable_tuple());
      return RunHandler(op_id, now_, cost, /*occupies=*/true, [&]() {
        return op->ProcessTuple(port, t);
      });
    }
    case ElementKind::kPunctuation: {
      Punctuation p = element.punct();
      return RunHandler(op_id, now_, options_.cost.PunctCostMs(),
                        /*occupies=*/true, [&]() {
                          return op->ProcessPunctuation(port, p);
                        });
    }
    case ElementKind::kEndOfStream:
      return RunHandler(op_id, now_, options_.cost.PunctCostMs(),
                        /*occupies=*/true,
                        [&]() { return op->ProcessEos(port); });
  }
  return Status::Internal("unknown element kind");
}

Status SimExecutor::Impl::FireOpFree(int64_t op_id) {
  OpState& st = states_[static_cast<size_t>(op_id)];
  st.free_scheduled = false;
  if (st.buffer.empty()) return Status::OK();
  if (st.busy_until > now_) {
    // A control handler may have re-armed us; re-schedule.
    Event e;
    e.time = st.busy_until;
    e.kind = EventKind::kOpFree;
    e.op = op_id;
    Schedule(std::move(e));
    st.free_scheduled = true;
    return Status::OK();
  }
  return ProcessNext(op_id);
}

Status SimExecutor::Impl::Run(QueryPlan* plan) {
  if (!plan->finalized()) {
    NSTREAM_RETURN_NOT_OK(plan->Finalize());
  }
  plan_ = plan;
  now_ = 0.0;
  states_.assign(static_cast<size_t>(plan->num_operators()), OpState{});
  ctx_ = std::make_unique<SimContext>(this);

  for (int64_t id = 0; id < plan->num_operators(); ++id) {
    NSTREAM_RETURN_NOT_OK(plan->op(id)->Open(ctx_.get()));
  }
  for (int64_t id = 0; id < plan->num_operators(); ++id) {
    Operator* op = plan->op(id);
    if (!op->is_source()) continue;
    auto* src = static_cast<SourceOperator*>(op);
    Event e;
    e.kind = EventKind::kSourceProduce;
    e.op = id;
    std::optional<TimeMs> first = src->NextArrivalMs();
    e.time = first.has_value()
                 ? std::max(now_, static_cast<double>(*first))
                 : now_;
    Schedule(std::move(e));
  }

  while (!heap_.empty()) {
    if (++events_ > kMaxEvents) {
      return Status::ResourceExhausted("SimExecutor exceeded its event budget");
    }
    Event e = heap_.top();
    heap_.pop();
    NSTREAM_DCHECK(e.time >= now_ - 1e-9);
    if (e.time > now_) now_ = e.time;
    switch (e.kind) {
      case EventKind::kSourceProduce:
        NSTREAM_RETURN_NOT_OK(FireSourceProduce(e.op));
        break;
      case EventKind::kDeliver:
        NSTREAM_RETURN_NOT_OK(FireDeliver(&e));
        break;
      case EventKind::kControl:
        NSTREAM_RETURN_NOT_OK(FireControl(&e));
        break;
      case EventKind::kOpFree:
        NSTREAM_RETURN_NOT_OK(FireOpFree(e.op));
        break;
    }
  }

  for (int64_t id = 0; id < plan->num_operators(); ++id) {
    const OpState& st = states_[static_cast<size_t>(id)];
    if (!st.buffer.empty()) {
      return Status::Internal("SimExecutor finished with buffered input at " +
                              plan->op(id)->name());
    }
  }
  for (int64_t id = 0; id < plan->num_operators(); ++id) {
    NSTREAM_RETURN_NOT_OK(plan->op(id)->Close());
  }
  return Status::OK();
}

SimExecutor::SimExecutor(SimExecutorOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

SimExecutor::~SimExecutor() = default;

Status SimExecutor::Run(QueryPlan* plan) { return impl_->Run(plan); }

double SimExecutor::now_ms() const { return impl_->now(); }

uint64_t SimExecutor::events_processed() const { return impl_->events(); }

}  // namespace nstream
