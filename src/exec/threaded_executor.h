// ThreadedExecutor: NiagaraST's execution architecture — each operator
// runs as its own thread, connected by paged data queues (downstream)
// and control channels (upstream). Operators sleep on a per-operator
// wake object and are awakened when a data page or control message
// arrives (§5, "Operator Control"). Control messages are drained before
// pending data pages.
//
// This executor demonstrates the mechanism under genuine concurrency;
// deterministic experiments use SyncExecutor or the manual-mode
// Scheduler under a VirtualClock.

#ifndef NSTREAM_EXEC_THREADED_EXECUTOR_H_
#define NSTREAM_EXEC_THREADED_EXECUTOR_H_

#include "common/status.h"
#include "exec/query_plan.h"
#include "stream/data_queue.h"

namespace nstream {

struct ThreadedExecutorOptions {
  DataQueueOptions queue{/*page_size=*/128, /*max_pages=*/64};
  // When true, each source sleeps so elements enter the engine at
  // NextArrivalMs() * pace_scale wall milliseconds from start.
  bool pace_sources = false;
  double pace_scale = 1.0;
  // Pages an operator may drain per input between control-channel
  // re-checks. 1 reproduces the classic loop (tightest feedback
  // latency); raising it amortizes wake/sleep churn for fan-in and
  // fan-out operators (ShardMerge over many shard inputs, Exchange
  // feeding many shard queues) at the cost of checking feedback less
  // often. Control is always drained before the next data batch.
  int max_pages_per_wake = 1;
};

class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(ThreadedExecutorOptions options = {})
      : options_(options) {}

  /// Spawn one thread per operator, run to completion, join.
  Status Run(QueryPlan* plan);

 private:
  ThreadedExecutorOptions options_;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_THREADED_EXECUTOR_H_
