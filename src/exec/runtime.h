// PlanRuntime: the materialized connections (data queue + control
// channel per edge) for a finalized QueryPlan, with per-operator
// input/output lookup tables. Shared by all executors.

#ifndef NSTREAM_EXEC_RUNTIME_H_
#define NSTREAM_EXEC_RUNTIME_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/query_plan.h"
#include "stream/connection.h"

namespace nstream {

class PlanRuntime {
 public:
  /// Build one Connection per plan edge, each queue with
  /// `queue_options` (its bound picks the ring or the chain). Every edge is
  /// single-producer/single-consumer: QueryPlan::Connect wires each
  /// port at most once.
  static Result<std::unique_ptr<PlanRuntime>> Create(
      QueryPlan* plan, const DataQueueOptions& queue_options);

  QueryPlan* plan() { return plan_; }

  /// Connection feeding input `port` of operator `id` (never null for a
  /// finalized plan).
  Connection* input_conn(int64_t id, int port) {
    return inputs_[static_cast<size_t>(id)][static_cast<size_t>(port)];
  }
  /// Connection leaving output `port` of operator `id`.
  Connection* output_conn(int64_t id, int port) {
    return outputs_[static_cast<size_t>(id)][static_cast<size_t>(port)];
  }

  const std::vector<std::unique_ptr<Connection>>& connections() const {
    return connections_;
  }

  /// True if a complete page waits in any input queue of operator `id`.
  bool HasInputPage(int64_t id) const;
  /// The park-time flush every executor runs: the operator's staged
  /// output (Operator::FlushStaged), then the open page of each of its
  /// output queues. Producer-side: call from the operator's own task
  /// or thread.
  Status FlushStaged(int64_t id);

 private:
  QueryPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<Connection>> connections_;
  // Indexed [op][port].
  std::vector<std::vector<Connection*>> inputs_;
  std::vector<std::vector<Connection*>> outputs_;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_RUNTIME_H_
