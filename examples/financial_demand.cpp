// Demanded punctuation (§3.4): a currency speculator needs a trend
// estimate within seconds — a partial answer now beats a complete
// answer too late. The demanded punctuation ![...] makes the windowed
// aggregate unblock and emit its current partial for the demanded
// subset immediately, without waiting for the window to close.

#include <cstdio>

#include "common/logging.h"
#include "exec/scheduler.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "ops/window_aggregate.h"
#include "punct/pattern_parser.h"

using namespace nstream;

namespace {

SchemaPtr RateSchema() {
  return Schema::Make({{"pair", ValueType::kInt64},  // currency pair id
                       {"timestamp", ValueType::kTimestamp},
                       {"rate", ValueType::kDouble}});
}

std::vector<TimedElement> MakeRates() {
  std::vector<TimedElement> out;
  // Three minutes of quotes for 3 currency pairs, 1-minute windows,
  // with punctuation at each minute boundary.
  TimeMs last_punct = 0;
  for (int i = 0; i < 360; ++i) {
    TimeMs ts = i * 500;
    for (int pair = 0; pair < 3; ++pair) {
      out.push_back(TimedElement::OfTuple(
          ts, TupleBuilder()
                  .I64(pair)
                  .Ts(ts)
                  .D(1.0 + 0.002 * pair + 0.0001 * i)
                  .Build()));
    }
    if (ts - last_punct >= 60'000) {
      out.push_back(TimedElement::OfPunct(
          ts, Punctuation(PunctPattern::AllWildcard(3).With(
                  1, AttrPattern::Le(Value::Timestamp(ts))))));
      last_punct = ts;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Demanded punctuation (paper §3.4): \"I need this subset NOW; "
      "a partial result is fine.\"\n\n");

  QueryPlan plan;
  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "quotes", RateSchema(), MakeRates()));

  WindowAggregateOptions agg;
  agg.ts_attr = 1;
  agg.group_attrs = {0};
  agg.agg_attr = 2;
  agg.kind = AggKind::kAvg;
  agg.window = {60'000, 60'000};  // 1-minute trend average
  auto* avg =
      plan.AddOp(std::make_unique<WindowAggregate>("trend", agg));

  // The speculator: once the first minute's results land, their
  // margin of action closes — demand the *currently open* window for
  // pair 1 right now: ![*, 1, *] over (window_end, pair, avg_rate).
  auto demanded = std::make_shared<bool>(false);
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "speculator", CollectorSinkOptions{},
      [demanded](const Tuple&,
                 TimeMs) -> std::vector<FeedbackPunctuation> {
        if (*demanded) return {};
        *demanded = true;
        return {ParseFeedback("![*,1,*]").value()};
      }));

  NSTREAM_CHECK(plan.Connect(*source, *avg).ok());
  NSTREAM_CHECK(plan.Connect(*avg, *sink).ok());

  SyncExecutor exec;
  Status st = exec.Run(&plan);
  NSTREAM_CHECK(st.ok()) << st.ToString();

  std::printf("results received by the speculator (arrival order):\n");
  size_t final_results =
      sink->collected().size() - avg->partials_emitted();
  size_t seen = 0;
  for (const CollectedTuple& c : sink->collected()) {
    ++seen;
    // Partials are the results whose window had not punctuated yet; in
    // this run they are the pair-1 rows that arrive out of window
    // order, immediately after the demand.
    bool looks_early =
        seen > 3 && seen <= 3 + avg->partials_emitted();
    std::printf("  %s%s\n", c.tuple.ToString().c_str(),
                looks_early ? "   <-- early partial (demanded)" : "");
  }
  std::printf(
      "\nAVG emitted %llu partial result(s) ahead of window close in "
      "response to ![*,1,*]; the %zu exact results still arrived as "
      "windows closed (approximate-then-exact, as in CEDR-style "
      "speculation).\n",
      static_cast<unsigned long long>(avg->partials_emitted()),
      final_results);
  return avg->partials_emitted() > 0 ? 0 : 1;
}
