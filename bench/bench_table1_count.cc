// Reproduces Table 1: the COUNT characterization. Prints the published
// rows, verifies the implemented decision logic agrees with each row,
// and measures the cost/benefit of each response class with
// google-benchmark: group feedback (purge+guard) vs aggregate-bound
// feedback (guard-output-only) vs the feedback-unaware null response.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/logging.h"
#include "core/aggregate_feedback.h"
#include "core/characterization.h"
#include "exec/scheduler.h"
#include "metrics/report.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "ops/window_aggregate.h"
#include "punct/pattern_parser.h"

namespace nstream {
namespace {

SchemaPtr InSchema() {
  return Schema::Make({{"group", ValueType::kInt64},
                       {"timestamp", ValueType::kTimestamp},
                       {"value", ValueType::kDouble}});
}

std::vector<TimedElement> MakeStream(int n, int groups) {
  std::vector<TimedElement> out;
  out.reserve(static_cast<size_t>(n) + static_cast<size_t>(n) / 64);
  for (int i = 0; i < n; ++i) {
    TimeMs ts = static_cast<TimeMs>(i) * 10;
    out.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(i % groups).Ts(ts).D(i % 97).Build()));
    if (i % 512 == 511) {
      PunctPattern p = PunctPattern::AllWildcard(3).With(
          1, AttrPattern::Le(Value::Timestamp(ts)));
      out.push_back(TimedElement::OfPunct(ts, Punctuation(std::move(p))));
    }
  }
  return out;
}

struct CountRun {
  uint64_t updates = 0;
  uint64_t emitted = 0;
  uint64_t purged = 0;
};

// Run COUNT(group, 1s windows) over `n` tuples; `feedback_text` (if
// any) is injected once the sink has seen `inject_after` results.
CountRun RunCount(benchmark::State* state, int n,
                  const char* feedback_text) {
  QueryPlan plan;
  auto* src = plan.AddOp(std::make_unique<VectorSource>(
      "src", InSchema(), MakeStream(n, /*groups=*/16)));
  WindowAggregateOptions opt;
  opt.ts_attr = 1;
  opt.group_attrs = {0};
  opt.agg_attr = -1;  // COUNT(*)
  opt.kind = AggKind::kCount;
  opt.window = {1'000, 1'000};
  auto* count =
      plan.AddOp(std::make_unique<WindowAggregate>("count", opt));
  auto injected = std::make_shared<bool>(false);
  std::string fb_text = feedback_text == nullptr ? "" : feedback_text;
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false},
      [fb_text, injected](const Tuple&,
                          TimeMs) -> std::vector<FeedbackPunctuation> {
        if (fb_text.empty() || *injected) return {};
        *injected = true;
        return {ParseFeedback(fb_text).value()};
      }));
  NSTREAM_CHECK(plan.Connect(*src, *count).ok());
  NSTREAM_CHECK(plan.Connect(*count, *sink).ok());

  SyncExecutor exec;
  Status st = exec.Run(&plan);
  if (!st.ok() && state != nullptr) {
    state->SkipWithError(st.ToString().c_str());
  }
  CountRun out;
  out.updates = count->updates_applied();
  out.emitted = sink->consumed();
  out.purged = count->stats().state_purged;
  return out;
}

void BM_Count_NullResponse(benchmark::State& state) {
  for (auto _ : state) {
    CountRun r = RunCount(&state, static_cast<int>(state.range(0)),
                          nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Count_NullResponse)->Arg(1 << 14)->Arg(1 << 16);

void BM_Count_GroupFeedback(benchmark::State& state) {
  // Table 1 row 1: ¬[g,*] — purge group, guard input, propagate.
  // (group 3 for every remaining window: wildcard window_end.)
  for (auto _ : state) {
    CountRun r = RunCount(&state, static_cast<int>(state.range(0)),
                          "~[*,3,*]");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Count_GroupFeedback)->Arg(1 << 14)->Arg(1 << 16);

void BM_Count_LowerBoundFeedback(benchmark::State& state) {
  // Table 1 row 3: ¬[*,≥a] — purge matching partials, tombstone,
  // propagate G.
  for (auto _ : state) {
    CountRun r = RunCount(&state, static_cast<int>(state.range(0)),
                          "~[*,*,>=5]");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Count_LowerBoundFeedback)->Arg(1 << 14)->Arg(1 << 16);

void BM_Count_UpperBoundFeedback(benchmark::State& state) {
  // Table 1 row 4: ¬[*,≤a] — output guard only (count may still grow).
  for (auto _ : state) {
    CountRun r = RunCount(&state, static_cast<int>(state.range(0)),
                          "~[*,*,<=5]");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Count_UpperBoundFeedback)->Arg(1 << 14)->Arg(1 << 16);

}  // namespace
}  // namespace nstream

int main(int argc, char** argv) {
  using namespace nstream;
  std::printf("%s", ExperimentBanner("T1 (Table 1)",
                                     "A characterization for COUNT")
                        .c_str());
  std::printf("%s\n",
              RenderCharacterization("Published rows:", Table1Count())
                  .c_str());

  // Verify the implemented decision logic row by row (the output
  // schema is (window_end, g, count): positions {0,1} group, {2} agg).
  struct RowCheck {
    const char* fb;
    const char* expect;
    bool ok;
  };
  auto decide = [](const char* text) {
    return DecideAggFeedback(ParseFeedback(text).value().pattern(),
                             {0, 1}, {2},
                             AggMonotonicity::kNonDecreasing);
  };
  AggFeedbackDecision r1 = decide("~[*,3,*]");
  AggFeedbackDecision r2 = decide("~[*,*,7]");
  AggFeedbackDecision r3 = decide("~[*,*,>=7]");
  AggFeedbackDecision r4 = decide("~[*,*,<=7]");
  RowCheck checks[] = {
      {"~[g,*]", "purge groups + guard input + propagate",
       r1.purge_groups && r1.guard_input_groups && r1.propagate_groups},
      {"~[*,a]", "guard output only",
       r2.guard_output && !r2.purge_groups && !r2.purge_by_partial},
      {"~[*,>=a]", "purge matching partials (G) + tombstone",
       r3.purge_by_partial},
      {"~[*,<=a]", "guard output only",
       r4.guard_output && !r4.purge_by_partial && !r4.purge_groups},
  };
  std::printf("Implemented decisions vs published rows:\n");
  bool all_ok = true;
  for (const RowCheck& c : checks) {
    std::printf("  %-10s -> %-45s [%s]\n", c.fb, c.expect,
                c.ok ? "MATCH" : "MISMATCH");
    all_ok = all_ok && c.ok;
  }

  // Demonstrate the effect sizes once outside the timed loops.
  CountRun null_run = RunCount(nullptr, 1 << 16, nullptr);
  CountRun group_run = RunCount(nullptr, 1 << 16, "~[*,3,*]");
  CountRun lower_run = RunCount(nullptr, 1 << 16, "~[*,*,>=5]");
  std::printf(
      "\nEffect at 65536 tuples / 16 groups:\n"
      "  null response:      %llu updates, %llu results\n"
      "  ~[*,3,*] feedback:  %llu updates, %llu results, %llu purged\n"
      "  ~[*,*,>=5]:         %llu updates, %llu results, %llu purged\n\n",
      (unsigned long long)null_run.updates,
      (unsigned long long)null_run.emitted,
      (unsigned long long)group_run.updates,
      (unsigned long long)group_run.emitted,
      (unsigned long long)group_run.purged,
      (unsigned long long)lower_run.updates,
      (unsigned long long)lower_run.emitted,
      (unsigned long long)lower_run.purged);
  if (!all_ok) return 1;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
