#include "exec/runtime.h"

namespace nstream {

Result<std::unique_ptr<PlanRuntime>> PlanRuntime::Create(
    QueryPlan* plan, const DataQueueOptions& queue_options) {
  if (!plan->finalized()) {
    return Status::FailedPrecondition(
        "PlanRuntime requires a finalized plan");
  }
  auto rt = std::make_unique<PlanRuntime>();
  rt->plan_ = plan;
  size_t n = static_cast<size_t>(plan->num_operators());
  rt->inputs_.resize(n);
  rt->outputs_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Operator* o = plan->op(static_cast<int64_t>(i));
    rt->inputs_[i].resize(static_cast<size_t>(o->num_inputs()), nullptr);
    rt->outputs_[i].resize(static_cast<size_t>(o->num_outputs()),
                           nullptr);
  }
  for (const PlanEdge& e : plan->edges()) {
    auto conn = std::make_unique<Connection>(queue_options);
    conn->producer_op = e.producer;
    conn->producer_port = e.producer_port;
    conn->consumer_op = e.consumer;
    conn->consumer_port = e.consumer_port;
    Connection* raw = conn.get();
    rt->connections_.push_back(std::move(conn));
    rt->outputs_[static_cast<size_t>(e.producer)]
                [static_cast<size_t>(e.producer_port)] = raw;
    rt->inputs_[static_cast<size_t>(e.consumer)]
               [static_cast<size_t>(e.consumer_port)] = raw;
  }
  return rt;
}

bool PlanRuntime::HasInputPage(int64_t id) const {
  for (const Connection* in : inputs_[static_cast<size_t>(id)]) {
    if (in->data->HasPage()) return true;
  }
  return false;
}

Status PlanRuntime::FlushStaged(int64_t id) {
  NSTREAM_RETURN_NOT_OK(plan_->op(id)->FlushStaged());
  for (Connection* out : outputs_[static_cast<size_t>(id)]) {
    out->data->Flush();
  }
  return Status::OK();
}

}  // namespace nstream
