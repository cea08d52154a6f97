// Quickstart: build a three-operator plan, run it, then run it again
// with assumed feedback injected from the consumer side and watch the
// operator exploit it (guard) and relay it upstream.
//
//   source(readings) -> SELECT(speed >= 0) -> sink
//
// Build & run:   ./examples/quickstart

#include <cstdio>

#include "common/logging.h"
#include "exec/scheduler.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "punct/pattern_parser.h"

using namespace nstream;

namespace {

SchemaPtr ReadingSchema() {
  return Schema::Make({{"segment", ValueType::kInt64},
                       {"timestamp", ValueType::kTimestamp},
                       {"speed", ValueType::kDouble}});
}

std::vector<TimedElement> MakeReadings() {
  std::vector<TimedElement> out;
  for (int i = 0; i < 12; ++i) {
    TimeMs ts = i * 1'000;
    out.push_back(TimedElement::OfTuple(
        ts,
        TupleBuilder().I64(i % 3).Ts(ts).D(40.0 + 2 * i).Build()));
  }
  // Embedded punctuation: "no more readings at or before t=5000".
  out.push_back(TimedElement::OfPunct(
      5'000,
      Punctuation(ParsePattern("[*,<=t:5000,*]").value())));
  return out;
}

int RunOnce(bool with_feedback) {
  QueryPlan plan;
  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "source", ReadingSchema(), MakeReadings()));
  auto* select = plan.AddOp(Select::FromPattern(
      "quality", ParsePattern("[*,*,>=0]").value()));

  // The consumer decides it only cares about segment 1: it issues the
  // assumed punctuation ¬[1,*,*]... inverted — it IGNORES segment 1.
  CollectorSink::FeedbackDriver driver = nullptr;
  if (with_feedback) {
    auto sent = std::make_shared<bool>(false);
    driver = [sent](const Tuple&,
                    TimeMs) -> std::vector<FeedbackPunctuation> {
      if (*sent) return {};
      *sent = true;
      // "I will ignore everything from segment 1 from now on."
      return {ParseFeedback("~[1,*,*]").value()};
    };
  }
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "app", CollectorSinkOptions{}, driver));

  NSTREAM_CHECK(plan.Connect(*source, *select).ok());
  NSTREAM_CHECK(plan.Connect(*select, *sink).ok());

  // Small batches/pages so the pipeline genuinely interleaves and the
  // feedback races real in-flight data (the default 128-tuple pages
  // would drain this tiny stream before the feedback lands).
  SchedulerOptions opts;
  opts.source_batch_per_slice = 2;
  opts.queue.page_size = 2;
  SyncExecutor exec(opts);
  Status st = exec.Run(&plan);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("%s run: %llu tuples reached the app\n",
              with_feedback ? "feedback " : "baseline",
              static_cast<unsigned long long>(sink->consumed()));
  for (const CollectedTuple& c : sink->collected()) {
    std::printf("  %s\n", c.tuple.ToString().c_str());
  }
  std::printf("  SELECT dropped %llu tuples via its feedback guard; "
              "relayed %llu feedback messages upstream\n\n",
              static_cast<unsigned long long>(
                  select->stats().input_guard_drops),
              static_cast<unsigned long long>(
                  select->stats().feedback_propagated));
  return 0;
}

}  // namespace

int main() {
  std::printf("nstream quickstart - feedback punctuation 101\n");
  std::printf("plan: source -> SELECT(speed>=0) -> app sink\n\n");
  if (RunOnce(false) != 0) return 1;
  return RunOnce(true);
}
