// Supportability (§4.4): feedback is only worth installing when the
// stream's punctuation scheme can eventually reclaim the guard state
// it creates. The auction stream punctuates timestamps (progressing)
// and auction ids (finite lifetimes) but never bid amounts — so:
//
//   "ignore bids before 1pm"            -> supportable (timestamp)
//   "ignore bidder 2 in auction 4"      -> flagged (bidder undelimited)
//   "ignore bids over $1"               -> unsupportable (amount)
//
// The example checks each candidate against the scheme, installs the
// supportable one, and shows its guard being reclaimed by punctuation.

#include <cstdio>

#include "common/logging.h"
#include "exec/scheduler.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "punct/pattern_parser.h"
#include "punct/scheme.h"
#include "workload/auction.h"

using namespace nstream;

int main() {
  std::printf("Feedback supportability on a bid stream (paper §4.4)\n");
  std::printf("schema: (auction, bidder, amount, timestamp)\n");
  std::printf("punctuation scheme: auction=finite, timestamp="
              "progressing, bidder/amount=undelimited\n\n");

  PunctScheme scheme = AuctionPunctScheme();
  struct Candidate {
    const char* description;
    const char* feedback;
  };
  Candidate candidates[] = {
      {"ignore bids before t=60s", "~[*,*,*,<=t:60000]"},
      {"ignore bidder 2 in auction 4", "~[4,2,*,*]"},
      {"ignore bids over $1.00", "~[*,*,>1.0,*]"},
  };
  const char* chosen = nullptr;
  for (const Candidate& c : candidates) {
    FeedbackPunctuation fb = ParseFeedback(c.feedback).value();
    SupportabilityReport report = CheckSupportability(fb, scheme);
    std::printf("  %-32s %-18s -> %s\n", c.description, c.feedback,
                report.ToString().c_str());
    if (report.supportable && chosen == nullptr) {
      chosen = c.feedback;
    }
  }
  NSTREAM_CHECK(chosen != nullptr);

  std::printf("\ninstalling the supportable feedback (%s) on a SELECT "
              "over the live stream...\n\n",
              chosen);

  QueryPlan plan;
  AuctionConfig config;
  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "bids", AuctionSchema(), GenerateAuctionStream(config)));
  auto* select = plan.AddOp(
      Select::FromPattern("bid-filter", PunctPattern::AllWildcard(4)));
  auto sent = std::make_shared<bool>(false);
  std::string feedback_text = chosen;
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "app", CollectorSinkOptions{.record_tuples = false},
      [sent, feedback_text](const Tuple&, TimeMs)
          -> std::vector<FeedbackPunctuation> {
        if (*sent) return {};
        *sent = true;
        return {ParseFeedback(feedback_text).value()};
      }));
  NSTREAM_CHECK(plan.Connect(*source, *select).ok());
  NSTREAM_CHECK(plan.Connect(*select, *sink).ok());

  SyncExecutor exec;
  Status st = exec.Run(&plan);
  NSTREAM_CHECK(st.ok()) << st.ToString();

  // The feedback suppresses bids twice over: the Select purges those
  // already queued on its input, and its guard drops those still to
  // come.
  const GuardSet& guards = select->guards();
  const OperatorStats& stats = select->stats();
  std::printf(
      "run complete: %llu bids delivered, %llu suppressed (%llu purged "
      "from the queue, %llu dropped by the guard).\nguard lifecycle: "
      "installed=%llu expired=%llu live=%d (reclaimed by the t<=60s "
      "punctuation passing)\n",
      static_cast<unsigned long long>(sink->consumed()),
      static_cast<unsigned long long>(stats.work_avoided +
                                      stats.input_guard_drops),
      static_cast<unsigned long long>(stats.work_avoided),
      static_cast<unsigned long long>(stats.input_guard_drops),
      static_cast<unsigned long long>(guards.total_installed()),
      static_cast<unsigned long long>(guards.total_expired()),
      guards.size());
  return guards.size() == 0 ? 0 : 1;
}
