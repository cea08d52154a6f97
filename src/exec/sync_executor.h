// SyncExecutor: single-threaded, deterministic, page-at-a-time
// round-robin execution. The workhorse for unit/integration tests and
// for wall-clock benchmarks (Experiment 2), where savings come from
// actually skipping real work.
//
// Scheduling follows NiagaraST's priority rule: an operator always
// drains its control channels (feedback) before touching pending data
// pages. Because data sits in queues between rounds, feedback still
// races against in-flight pages — the effect §4.1 calls out — which
// makes this executor a faithful, if sequential, model.

#ifndef NSTREAM_EXEC_SYNC_EXECUTOR_H_
#define NSTREAM_EXEC_SYNC_EXECUTOR_H_

#include <memory>

#include "common/clock.h"
#include "common/status.h"
#include "exec/query_plan.h"
#include "exec/runtime.h"

namespace nstream {

struct SyncExecutorOptions {
  DataQueueOptions queue;
  // Source elements produced per scheduling round, per source. Small
  // values interleave sources finely; large values batch.
  int source_batch = 64;
};

class SyncExecutor {
 public:
  explicit SyncExecutor(SyncExecutorOptions options = {})
      : options_(options) {}

  /// Run the plan to completion (all sources exhausted, all queues
  /// drained, all operators EOS). The plan must be finalized.
  Status Run(QueryPlan* plan);

  /// System time seen by operators: a monotone event counter (ms are
  /// meaningless under synchronous execution but ordering is real).
  TimeMs now_ms() const { return now_ms_; }

 private:
  SyncExecutorOptions options_;
  TimeMs now_ms_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_SYNC_EXECUTOR_H_
