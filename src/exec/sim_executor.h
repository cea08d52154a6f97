// SimExecutor: deterministic discrete-event simulation of a pipelined
// (inter-operator parallel) stream engine under virtual time.
//
// NiagaraST runs operators as concurrent threads; latency dynamics like
// Experiment 1's imputed-tuple divergence (Figs. 5/6) arise from that
// parallelism plus cost asymmetry. Replaying those dynamics with real
// threads is timing-noisy and testbed-dependent, so this executor
// models each operator as a resource with its own busy-horizon:
//
//   * elements arrive at an operator's input buffer at virtual times;
//   * an idle operator starts the front element immediately; a busy one
//     starts it when the previous element's cost completes;
//   * emissions become available downstream at the completion instant;
//   * control messages (feedback) are high priority: they act on the
//     receiving operator immediately on arrival, ahead of buffered
//     data — matching NiagaraST's out-of-band control semantics.
//
// Everything is deterministic given the plan, cost model, and workload
// seed: runs are exactly reproducible, which the test suite exploits.

#ifndef NSTREAM_EXEC_SIM_EXECUTOR_H_
#define NSTREAM_EXEC_SIM_EXECUTOR_H_

#include <memory>

#include "common/clock.h"
#include "common/status.h"
#include "exec/cost_model.h"
#include "exec/query_plan.h"

namespace nstream {

struct SimExecutorOptions {
  CostModel cost;
  // One-way latency of an upstream control hop (feedback delivery).
  double control_latency_ms = 0.0;
};

class SimExecutor {
 public:
  explicit SimExecutor(SimExecutorOptions options = {});
  ~SimExecutor();

  /// Run the plan to completion under virtual time.
  Status Run(QueryPlan* plan);

  /// Virtual time after Run (ms).
  double now_ms() const;
  /// Total events processed (scheduling work, for ablations).
  uint64_t events_processed() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_SIM_EXECUTOR_H_
