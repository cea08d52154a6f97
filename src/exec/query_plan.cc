#include "exec/query_plan.h"

#include <deque>

#include "common/string_util.h"

namespace nstream {

int64_t QueryPlan::Add(std::unique_ptr<Operator> op) {
  int64_t id = static_cast<int64_t>(ops_.size());
  op->set_id(id);
  ops_.push_back(std::move(op));
  return id;
}

Status QueryPlan::Connect(int64_t producer, int producer_port,
                          int64_t consumer, int consumer_port) {
  if (producer < 0 || producer >= num_operators() || consumer < 0 ||
      consumer >= num_operators()) {
    return Status::OutOfRange("Connect: unknown operator id");
  }
  const Operator* p = op(producer);
  const Operator* c = op(consumer);
  if (producer_port < 0 || producer_port >= p->num_outputs()) {
    return Status::OutOfRange(StringPrintf(
        "Connect: %s has no output port %d", p->name().c_str(),
        producer_port));
  }
  if (consumer_port < 0 || consumer_port >= c->num_inputs()) {
    return Status::OutOfRange(StringPrintf(
        "Connect: %s has no input port %d", c->name().c_str(),
        consumer_port));
  }
  if (edge_out_of(producer, producer_port) != -1) {
    return Status::AlreadyExists(StringPrintf(
        "Connect: output port %d of %s already wired", producer_port,
        p->name().c_str()));
  }
  if (edge_into(consumer, consumer_port) != -1) {
    return Status::AlreadyExists(StringPrintf(
        "Connect: input port %d of %s already wired", consumer_port,
        c->name().c_str()));
  }
  edges_.push_back({producer, producer_port, consumer, consumer_port});
  return Status::OK();
}

int QueryPlan::edge_into(int64_t consumer, int port) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].consumer == consumer &&
        edges_[i].consumer_port == port) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int QueryPlan::edge_out_of(int64_t producer, int port) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].producer == producer &&
        edges_[i].producer_port == port) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status QueryPlan::Finalize() {
  if (finalized_) return Status::OK();
  if (ops_.empty()) return Status::InvalidArgument("empty plan");

  // Every port must be wired exactly once (Connect enforces "at most").
  for (const auto& o : ops_) {
    for (int i = 0; i < o->num_inputs(); ++i) {
      if (edge_into(o->id(), i) == -1) {
        return Status::FailedPrecondition(StringPrintf(
            "input port %d of %s unwired", i, o->name().c_str()));
      }
    }
    for (int p = 0; p < o->num_outputs(); ++p) {
      if (edge_out_of(o->id(), p) == -1) {
        return Status::FailedPrecondition(StringPrintf(
            "output port %d of %s unwired", p, o->name().c_str()));
      }
    }
  }

  // Kahn topological sort.
  std::vector<int> indegree(ops_.size(), 0);
  for (const PlanEdge& e : edges_) {
    ++indegree[static_cast<size_t>(e.consumer)];
  }
  std::deque<int64_t> ready;
  for (const auto& o : ops_) {
    if (indegree[static_cast<size_t>(o->id())] == 0) {
      ready.push_back(o->id());
    }
  }
  topo_order_.clear();
  while (!ready.empty()) {
    int64_t id = ready.front();
    ready.pop_front();
    topo_order_.push_back(id);
    for (const PlanEdge& e : edges_) {
      if (e.producer == id) {
        if (--indegree[static_cast<size_t>(e.consumer)] == 0) {
          ready.push_back(e.consumer);
        }
      }
    }
  }
  if (topo_order_.size() != ops_.size()) {
    return Status::InvalidArgument("plan contains a cycle");
  }

  // Schema inference in topological order.
  for (int64_t id : topo_order_) {
    Operator* o = op(id);
    NSTREAM_RETURN_NOT_OK(o->InferSchemas());
    for (const PlanEdge& e : edges_) {
      if (e.producer == id) {
        NSTREAM_RETURN_NOT_OK(ops_[static_cast<size_t>(e.consumer)]
                                  ->SetInputSchema(
                                      e.consumer_port,
                                      o->output_schema(e.producer_port)));
      }
    }
  }
  finalized_ = true;
  return Status::OK();
}

std::string QueryPlan::ToString() const {
  std::string out = "QueryPlan{\n";
  for (const auto& o : ops_) {
    out += StringPrintf("  #%lld %s (%d in, %d out)\n",
                        static_cast<long long>(o->id()),
                        o->name().c_str(), o->num_inputs(),
                        o->num_outputs());
  }
  for (const PlanEdge& e : edges_) {
    out += StringPrintf(
        "  %s.out%d -> %s.in%d\n",
        ops_[static_cast<size_t>(e.producer)]->name().c_str(),
        e.producer_port,
        ops_[static_cast<size_t>(e.consumer)]->name().c_str(),
        e.consumer_port);
  }
  out += "}";
  return out;
}

}  // namespace nstream
