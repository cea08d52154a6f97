// Experiment 1 as a narrated example (Example 3 / Figs. 5-6): the
// imputation plan on the manual-mode scheduler in virtual time, with
// and without PACE's assumed feedback. Prints the story the paper
// tells: without feedback the imputed branch diverges without bound;
// with feedback, the late backlog is dropped before IMPUTE looks it up
// and the branch keeps up.

#include <cstdio>

#include "common/logging.h"
#include "exec/scheduler.h"
#include "metrics/timeliness.h"
#include "workload/pipelines.h"

using namespace nstream;

namespace {

void Narrate(bool feedback) {
  ImputationPlanConfig config;
  config.stream.num_tuples = 2'000;
  config.impute_cost_ms = 112.0;   // one archival DB query per dirty tuple
  config.tolerance_ms = 5'000;     // PACE's bound on branch divergence
  config.feedback_enabled = feedback;

  ImputationPlan built = BuildImputationPlan(config);
  // Virtual time: tuples arrive at their timestamps and each archival
  // lookup keeps IMPUTE busy for its 112 ms.
  Status st = RunInVirtualTime(built.plan.get());
  NSTREAM_CHECK(st.ok()) << st.ToString();

  TimelinessOptions topt;
  topt.ts_attr = kImpTimestamp;
  topt.flag_attr = kImpFlag;
  topt.tolerance_ms = config.tolerance_ms;
  topt.total_expected_imputed = built.expected_dirty;
  TimelinessReport report =
      AnalyzeTimeliness(built.sink->collected(), topt);

  std::printf("--- %s ---\n", feedback
                                  ? "WITH feedback (PACE -> IMPUTE)"
                                  : "WITHOUT feedback (PACE as UNION)");
  std::printf("  %s\n", report.Summary().c_str());
  if (!report.imputed.empty()) {
    const SeriesPoint& last = report.imputed.back();
    std::printf("  last imputed tuple lagged %.1f s behind the stream\n",
                static_cast<double>(last.lag_ms) / 1000.0);
  }
  if (feedback) {
    std::printf("  PACE issued %llu assumed punctuations; the plan "
                "avoided %llu archival queries and IMPUTE ran %llu\n",
                static_cast<unsigned long long>(
                    built.pace->stats().feedback_sent),
                static_cast<unsigned long long>(
                    built.expected_dirty - built.impute->imputations()),
                static_cast<unsigned long long>(
                    built.impute->imputations()));
    std::printf("  guards on IMPUTE now: %s\n",
                built.impute->guards().ToString().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf(
      "Imputation pipeline (paper Example 3, Figs. 5-6)\n"
      "plan: DUPLICATE -> sigma_C | sigma_notC -> IMPUTE -> PACE -> "
      "app\n"
      "dirty tuples need a 112 ms archival lookup but arrive every "
      "80 ms: the branch cannot keep up.\n\n");
  Narrate(false);
  Narrate(true);
  std::printf(
      "The feedback run drops a bounded fraction of imputed tuples "
      "(the ones that were already too late) instead of letting every "
      "imputed tuple fall behind: exactly Fig. 5 vs Fig. 6.\n");
  return 0;
}
