// Canonical experiment pipelines (the query plans of Fig. 4), built
// once and shared by integration tests, benches, and examples.
//
//   Imputation plan (Fig. 4a):  DUPLICATE → σC / σ¬C → IMPUTE → PACE
//   Speed-map plan  (Fig. 4b):  σQ → AVERAGE → (viewer sink)

#ifndef NSTREAM_WORKLOAD_PIPELINES_H_
#define NSTREAM_WORKLOAD_PIPELINES_H_

#include <memory>

#include "core/feedback_policy.h"
#include "exec/query_plan.h"
#include "ops/duplicate.h"
#include "ops/impute.h"
#include "ops/pace.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/window_aggregate.h"
#include "workload/archive.h"
#include "workload/imputation.h"
#include "workload/traffic.h"
#include "workload/viewer.h"

namespace nstream {

// ---------------------------------------------------------------------
// Experiment 1: the imputation plan (Figs. 5 and 6).
// ---------------------------------------------------------------------

struct ImputationPlanConfig {
  ImputationConfig stream;
  // The archival lookup latency charged per dirty tuple. Chosen so the
  // imputation branch cannot keep up: dirty tuples arrive every
  // 2*inter_arrival_ms = 80 ms but take ~112 ms to impute, giving the
  // paper's steady-state drop rate of ~29% under feedback (1 - 80/112)
  // and near-total lateness without it.
  double impute_cost_ms = 112.0;
  // PACE's tolerated divergence between branches.
  TimeMs tolerance_ms = 5'000;
  // PACE re-issues feedback only after the watermark advanced this far
  // past the last issued bound. Short streams (virtual-time tests)
  // need a cadence far below the 1s default or the single allowed
  // round can miss the in-flight backlog entirely.
  TimeMs feedback_min_advance_ms = 1'000;
  bool feedback_enabled = true;
  // Send feedback only to the imputed branch (the paper's setup).
  bool feedback_to_impute_only = true;
  // > 0: a pass-through hop between IMPUTE and PACE holds each
  // feedback this many ms of system time before relaying it upstream
  // (the feedback-latency ablation).
  TimeMs feedback_delay_ms = 0;
};

struct ImputationPlan {
  std::unique_ptr<QueryPlan> plan;
  ArchiveStore* archive = nullptr;  // owned via keepalive below
  Duplicate* duplicate = nullptr;
  Select* clean_filter = nullptr;
  Select* dirty_filter = nullptr;
  Impute* impute = nullptr;
  Pace* pace = nullptr;
  CollectorSink* sink = nullptr;
  uint64_t expected_dirty = 0;

  std::shared_ptr<ArchiveStore> archive_keepalive;
};

ImputationPlan BuildImputationPlan(const ImputationPlanConfig& config);

// ---------------------------------------------------------------------
// Experiment 2: the speed-map plan (Fig. 7).
// ---------------------------------------------------------------------

struct SpeedmapPlanConfig {
  TrafficConfig traffic;
  // F0..F3 (Fig. 7's schemes) applied to AVERAGE; σQ exploits only
  // under F3 (it receives feedback only when AVERAGE propagates).
  FeedbackPolicy scheme = FeedbackPolicy::kExploitAndPropagate;
  // Viewer switch cadence (Fig. 7's 2/4/6-minute frequency axis).
  TimeMs switch_every_ms = 120'000;
  WindowSpec window{60'000, 60'000};
  // Real per-result "rendering" work at the sink (wall-clock benches).
  int sink_work_iters = 0;
  // Real per-update work inside AVERAGE (cost calibration; see
  // EXPERIMENTS.md).
  int agg_work_iters = 0;
  bool record_sink_tuples = false;
};

struct SpeedmapPlan {
  std::unique_ptr<QueryPlan> plan;
  Select* quality_filter = nullptr;
  WindowAggregate* average = nullptr;
  CollectorSink* sink = nullptr;
};

SpeedmapPlan BuildSpeedmapPlan(const SpeedmapPlanConfig& config);

}  // namespace nstream

#endif  // NSTREAM_WORKLOAD_PIPELINES_H_
