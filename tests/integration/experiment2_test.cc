// Integration: the Experiment 2 speed-map plan (Fig. 7) — viewer
// feedback with schemes F0-F3. Checks the paper's qualitative result:
// work done shrinks monotonically from F0 through F3, invisible
// segments' results are suppressed, and visible segments' results are
// identical to the baseline (Definition 1).

#include <gtest/gtest.h>

#include <map>

#include "core/correctness.h"
#include "exec/scheduler.h"
#include "workload/pipelines.h"

namespace nstream {
namespace {

SpeedmapPlanConfig SmallConfig(FeedbackPolicy scheme) {
  SpeedmapPlanConfig config;
  config.traffic.num_segments = 4;
  config.traffic.detectors_per_segment = 6;
  config.traffic.tick_ms = 20'000;
  config.traffic.duration_ms = 40 * 60'000;  // 40 minutes
  config.traffic.punct_every_ms = 60'000;
  config.scheme = scheme;
  config.switch_every_ms = 240'000;  // 4-minute zoom cadence
  config.record_sink_tuples = true;
  return config;
}

struct RunResult {
  SpeedmapPlan built;
  Status status;
};

RunResult RunPlan(FeedbackPolicy scheme) {
  RunResult out{BuildSpeedmapPlan(SmallConfig(scheme)), Status::OK()};
  SyncExecutor exec;
  out.status = exec.Run(out.built.plan.get());
  return out;
}

TEST(Experiment2, BaselineProducesAllSegments) {
  RunResult r = RunPlan(FeedbackPolicy::kIgnore);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  // 40 windows x 4 segments (last window closes at EOS).
  std::map<int64_t, int> per_segment;
  for (const auto& c : r.built.sink->collected()) {
    per_segment[c.tuple.value(1).int64_value()]++;
  }
  ASSERT_EQ(per_segment.size(), 4u);
  for (const auto& [seg, n] : per_segment) {
    EXPECT_GE(n, 39) << "segment " << seg;
  }
  EXPECT_EQ(r.built.average->stats().feedback_received, 0u);
}

TEST(Experiment2, F1SuppressesInvisibleResultsAtOutput) {
  RunResult r = RunPlan(FeedbackPolicy::kOutputGuardOnly);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_GT(r.built.average->stats().feedback_received, 0u);
  EXPECT_GT(r.built.average->stats().output_guard_drops, 0u);
  // F1 still does all the aggregation work.
  RunResult f0 = RunPlan(FeedbackPolicy::kIgnore);
  EXPECT_EQ(r.built.average->updates_applied(),
            f0.built.average->updates_applied());
  // But emits far fewer results.
  EXPECT_LT(r.built.sink->consumed(), f0.built.sink->consumed());
}

TEST(Experiment2, F2AvoidsAggregationWork) {
  RunResult f0 = RunPlan(FeedbackPolicy::kIgnore);
  RunResult f2 = RunPlan(FeedbackPolicy::kExploit);
  ASSERT_TRUE(f2.status.ok()) << f2.status.ToString();
  EXPECT_LT(f2.built.average->updates_applied(),
            f0.built.average->updates_applied() * 3 / 4);
  EXPECT_GT(f2.built.average->stats().input_guard_drops, 0u);
  // No propagation under F2: σQ never hears about it.
  EXPECT_EQ(f2.built.quality_filter->stats().feedback_received, 0u);
}

TEST(Experiment2, F3PropagatesToQualityFilter) {
  RunResult f3 = RunPlan(FeedbackPolicy::kExploitAndPropagate);
  ASSERT_TRUE(f3.status.ok()) << f3.status.ToString();
  EXPECT_GT(f3.built.quality_filter->stats().feedback_received, 0u);
  EXPECT_GT(f3.built.quality_filter->stats().input_guard_drops, 0u);
  EXPECT_GT(f3.built.average->stats().feedback_propagated, 0u);
  // The filter dropping inputs means the aggregate sees fewer tuples.
  RunResult f2 = RunPlan(FeedbackPolicy::kExploit);
  EXPECT_LT(f3.built.average->stats().tuples_in,
            f2.built.average->stats().tuples_in);
}

TEST(Experiment2, MonotoneWorkReductionF0ThroughF3) {
  RunResult f0 = RunPlan(FeedbackPolicy::kIgnore);
  RunResult f1 = RunPlan(FeedbackPolicy::kOutputGuardOnly);
  RunResult f2 = RunPlan(FeedbackPolicy::kExploit);
  RunResult f3 = RunPlan(FeedbackPolicy::kExploitAndPropagate);
  // "Work" = tuples delivered to sink + aggregate updates + filter
  // evaluations (a machine-independent proxy for Fig. 7's runtime).
  auto work = [](const RunResult& r) {
    return r.built.sink->consumed() +
           r.built.average->updates_applied() +
           r.built.quality_filter->stats().tuples_out;
  };
  EXPECT_GT(work(f0), work(f1));
  EXPECT_GT(work(f1), work(f2));
  EXPECT_GT(work(f2), work(f3));
}

TEST(Experiment2, VisibleSegmentResultsMatchBaseline) {
  // Definition 1 on the full run: the feedback run's output must be a
  // subset of the baseline's, and anything missing must be covered by
  // some issued feedback (invisible (interval, segment) pairs).
  RunResult f0 = RunPlan(FeedbackPolicy::kIgnore);
  RunResult f3 = RunPlan(FeedbackPolicy::kExploitAndPropagate);
  ViewerConfig viewer;
  viewer.num_segments = 4;
  viewer.switch_every_ms = 240'000;

  std::multiset<std::string> f3_set;
  for (const auto& c : f3.built.sink->collected()) {
    f3_set.insert(c.tuple.ToString());
  }
  int missing_visible = 0;
  int extra = static_cast<int>(f3_set.size());
  for (const auto& c : f0.built.sink->collected()) {
    std::string key = c.tuple.ToString();
    auto it = f3_set.find(key);
    bool present = it != f3_set.end();
    if (present) {
      f3_set.erase(it);
      --extra;  // consumed: it was a legitimate baseline tuple
      continue;
    }
    // Missing from F3: must be an invisible (interval, segment).
    TimeMs we = c.tuple.value(0).timestamp_value();
    int64_t seg = c.tuple.value(1).int64_value();
    // The window ending at `we` covers [we-60s, we); it belongs to the
    // viewer interval of its start.
    int visible = VisibleSegmentAt(viewer, we - 60'000);
    if (seg == visible) ++missing_visible;
  }
  EXPECT_EQ(missing_visible, 0)
      << "feedback suppressed results the viewer wanted";
  // Everything left in f3_set would be tuples F3 invented.
  EXPECT_EQ(f3_set.size(), 0u) << "feedback run invented tuples";
  (void)extra;
}

TEST(Experiment2, GuardsExpireAsWindowsClose) {
  RunResult f2 = RunPlan(FeedbackPolicy::kExploit);
  ASSERT_TRUE(f2.status.ok());
  // §4.4: guard state must not accumulate — patterns are time-bounded
  // and expire once punctuation covers them. After the run, (almost)
  // everything installed has been reclaimed.
  const GuardSet& guards = f2.built.average->group_guards();
  EXPECT_GT(guards.total_installed(), 0u);
  EXPECT_GE(guards.total_expired() + 2, guards.total_installed())
      << "guards leaked: " << guards.ToString();
}

}  // namespace
}  // namespace nstream
