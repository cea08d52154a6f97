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

/// How PlanRuntime::Create picks each edge's DataQueue transport.
enum class EdgeTransportPolicy : uint8_t {
  // Every edge uses the mutex deque — any threading, unbounded queues
  // allowed. The scheduler's use_lockfree_queues = false hedge uses
  // this.
  kMutexDeque = 0,
  // Edges the plan proves single-producer/single-consumer
  // (QueryPlan::EdgeSpscEligible) get the lock-free SPSC ring; the
  // rest keep the mutex deque. The thread-per-operator executor uses
  // this: it pushes from exactly the producer's thread and pops from
  // exactly the consumer's.
  kSpscWhereEligible,
  // SPSC-eligible edges get the unbounded lock-free SPSC chain
  // (stream/spsc_chain.h); the rest keep the mutex deque, with no
  // capacity. The scheduler uses this, pooled or manual (SyncExecutor):
  // its fixed worker pool must never park a worker on
  // producer-side backpressure (a blocked producer slice could starve
  // the very consumer task that would drain the queue — guaranteed
  // deadlock at pool size 1), so every transport it uses must have
  // non-blocking pushes; it bounds the queues with output credit
  // instead, deciding which task starts (scheduler.h). The SPSC
  // contract holds because each queue side is pinned to one *task*,
  // tasks run on at most one worker at a time, and task handoff
  // between workers goes through the scheduler mutex
  // (release/acquire orders the plain fields).
  kSpscChainWhereEligible,
};

class PlanRuntime {
 public:
  /// Build one Connection per plan edge, tagging each edge's queue
  /// transport per `policy`.
  static Result<std::unique_ptr<PlanRuntime>> Create(
      QueryPlan* plan, const DataQueueOptions& queue_options,
      EdgeTransportPolicy policy = EdgeTransportPolicy::kMutexDeque);

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
