// Ablations on the feedback mechanism itself:
//
//  1. Feedback delivery latency (§4.1 names in-flight tuples and
//     propagation delay as the gap between per-operator correctness
//     and whole-plan effect): sweep the delay of a feedback hop
//     between IMPUTE and PACE (ImputationPlanConfig::feedback_delay_ms)
//     on the manual-mode scheduler in virtual time, and measure how
//     much wasted imputation work slips through before exploitation
//     kicks in.
//
//  2. Guard expiration (§4.4): run the Experiment 2 viewer feedback
//     with and without punctuation-driven guard expiry and compare the
//     number of live guard patterns — the state-accumulation argument
//     for only supporting feedback on delimited attributes.

#include <cstdio>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/scheduler.h"
#include "metrics/report.h"
#include "metrics/timeliness.h"
#include "workload/pipelines.h"

namespace nstream {
namespace {

void FeedbackLatencyAblation() {
  std::printf("%s",
              ExperimentBanner("A1",
                               "Feedback delivery latency vs wasted "
                               "work (Experiment 1 plan)")
                  .c_str());
  TextTable table({"feedback delay", "imputations done",
                   "queries avoided", "imputed dropped/late"});
  for (TimeMs delay_ms : {0, 100, 1'000, 5'000, 20'000}) {
    ImputationPlanConfig config;
    config.stream.num_tuples = 3'000;
    config.impute_cost_ms = 112.0;
    config.tolerance_ms = 5'000;
    config.feedback_enabled = true;
    config.feedback_delay_ms = delay_ms;
    ImputationPlan built = BuildImputationPlan(config);

    Status st = RunInVirtualTime(built.plan.get());
    NSTREAM_CHECK(st.ok()) << st.ToString();

    TimelinessOptions topt;
    topt.ts_attr = kImpTimestamp;
    topt.flag_attr = kImpFlag;
    topt.tolerance_ms = config.tolerance_ms;
    topt.total_expected_imputed = built.expected_dirty;
    TimelinessReport report =
        AnalyzeTimeliness(built.sink->collected(), topt);

    table.AddRow(
        {FormatDouble(static_cast<double>(delay_ms) / 1000.0, 1) + "s",
         std::to_string(built.impute->imputations()),
         std::to_string(built.expected_dirty -
                        built.impute->imputations()),
         FormatDouble(100 * report.imputed_dropped_or_late_fraction(),
                      1) +
             "%"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("reading: slower feedback -> fewer avoided queries and "
              "more late tuples; the mechanism degrades gracefully to "
              "the no-feedback baseline.\n\n");
}

void GuardExpiryAblation() {
  std::printf("%s",
              ExperimentBanner("A2",
                               "Guard expiration via delimited "
                               "attributes (Experiment 2 plan)")
                  .c_str());
  TextTable table({"expiry", "guards installed", "guards expired",
                   "live at end"});
  // The viewer's feedback is time-bounded, so guards expire as windows
  // close. The counterfactual (no expiry) is simulated by counting
  // installed-but-never-expired patterns.
  SpeedmapPlanConfig config;
  config.traffic.num_segments = 9;
  config.traffic.detectors_per_segment = 4;
  config.traffic.duration_ms = 4LL * 3'600'000;
  config.scheme = FeedbackPolicy::kExploit;
  config.switch_every_ms = 120'000;
  SpeedmapPlan built = BuildSpeedmapPlan(config);
  SyncExecutor exec;
  Status st = exec.Run(built.plan.get());
  NSTREAM_CHECK(st.ok()) << st.ToString();

  const GuardSet& g = built.average->group_guards();
  table.AddRow({"punctuation-driven (ours)",
                std::to_string(g.total_installed()),
                std::to_string(g.total_expired()),
                std::to_string(g.size())});
  table.AddRow({"none (counterfactual)",
                std::to_string(g.total_installed()), "0",
                std::to_string(g.total_installed())});
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "reading: every installed guard was reclaimed by embedded "
      "punctuation covering it; without expiry the guard set grows "
      "linearly with feedback volume (%llu patterns over 4 h), which "
      "is §4.4's argument for restricting feedback to delimited "
      "attributes.\n",
      static_cast<unsigned long long>(g.total_installed()));
}

}  // namespace
}  // namespace nstream

int main() {
  nstream::FeedbackLatencyAblation();
  nstream::GuardExpiryAblation();
  return 0;
}
