// QueryPlan: the operator DAG. Owns the operators, records edges, runs
// schema inference in topological order, and validates that every port
// is wired exactly once. Executors consume the finalized plan.

#ifndef NSTREAM_EXEC_QUERY_PLAN_H_
#define NSTREAM_EXEC_QUERY_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/operator.h"

namespace nstream {

/// One producer→consumer edge.
struct PlanEdge {
  int64_t producer = -1;
  int producer_port = 0;
  int64_t consumer = -1;
  int consumer_port = 0;
};

class QueryPlan {
 public:
  QueryPlan() = default;
  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  /// Add an operator; returns its id. Ids are dense [0, num_operators).
  int64_t Add(std::unique_ptr<Operator> op);

  /// Convenience: add and return a typed raw pointer (plan keeps
  /// ownership). Usage: auto* sel = plan.AddOp(std::make_unique<...>());
  template <typename T>
  T* AddOp(std::unique_ptr<T> op) {
    T* raw = op.get();
    Add(std::move(op));
    return raw;
  }

  /// Wire producer's output port to consumer's input port.
  Status Connect(int64_t producer, int producer_port, int64_t consumer,
                 int consumer_port);
  /// Shorthand for single-port operators.
  Status Connect(const Operator& producer, const Operator& consumer) {
    return Connect(producer.id(), 0, consumer.id(), 0);
  }
  Status Connect(const Operator& producer, int producer_port,
                 const Operator& consumer, int consumer_port) {
    return Connect(producer.id(), producer_port, consumer.id(),
                   consumer_port);
  }

  /// Validate wiring, compute topological order, infer schemas.
  /// Must be called (successfully) before execution.
  Status Finalize();
  bool finalized() const { return finalized_; }

  int num_operators() const { return static_cast<int>(ops_.size()); }
  Operator* op(int64_t id) { return ops_[static_cast<size_t>(id)].get(); }
  const Operator* op(int64_t id) const {
    return ops_[static_cast<size_t>(id)].get();
  }
  const std::vector<PlanEdge>& edges() const { return edges_; }
  /// Topological order (producers before consumers); valid after
  /// Finalize.
  const std::vector<int64_t>& topo_order() const { return topo_order_; }

  /// Edge index feeding (consumer, port); -1 if unwired.
  int edge_into(int64_t consumer, int port) const;
  /// Edge index leaving (producer, port); -1 if unwired.
  int edge_out_of(int64_t producer, int port) const;

  /// Multi-line plan rendering for logs/tests.
  std::string ToString() const;

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
  std::vector<PlanEdge> edges_;
  std::vector<int64_t> topo_order_;
  bool finalized_ = false;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_QUERY_PLAN_H_
