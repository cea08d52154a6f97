#include <gtest/gtest.h>

#include "core/correctness.h"
#include "ops/window.h"
#include "ops/window_aggregate.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::FB;
using testing_util::LinearPlan;
using testing_util::P;

// ----------------------------------------------------------- WID windows

TEST(WindowSpecTest, TumblingAssignsExactlyOneWindow) {
  WindowSpec w{1'000, 1'000};
  EXPECT_EQ(w.WindowsOf(0), std::vector<int64_t>{0});
  EXPECT_EQ(w.WindowsOf(999), std::vector<int64_t>{0});
  EXPECT_EQ(w.WindowsOf(1'000), std::vector<int64_t>{1});
}

TEST(WindowSpecTest, SlidingAssignsMultipleWindows) {
  WindowSpec w{3'000, 1'000};  // range 3s, slide 1s
  std::vector<int64_t> wins = w.WindowsOf(5'500);
  // 5500 in [w*1000, w*1000+3000) for w in {3,4,5}.
  EXPECT_EQ(wins, (std::vector<int64_t>{3, 4, 5}));
}

TEST(WindowSpecTest, LastClosableWindow) {
  WindowSpec w{1'000, 1'000};
  // "all ts <= 999 seen": window 0 ([0,1000)) is complete.
  EXPECT_EQ(w.LastClosableWindow(999), 0);
  EXPECT_EQ(w.LastClosableWindow(998), -1);
  WindowSpec sliding{3'000, 1'000};
  // window w covers [w, w+3): complete once ts <= w+2999 seen.
  EXPECT_EQ(sliding.LastClosableWindow(2'999), 0);
  EXPECT_EQ(sliding.LastClosableWindow(3'999), 1);
}

struct WindowCase {
  TimeMs range;
  TimeMs slide;
};

class WindowPropertyTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowPropertyTest, MembershipConsistency) {
  WindowSpec w{GetParam().range, GetParam().slide};
  for (TimeMs ts = 0; ts < 20'000; ts += 333) {
    for (int64_t wid : w.WindowsOf(ts)) {
      EXPECT_LE(w.WindowStart(wid), ts);
      EXPECT_LT(ts, w.WindowEnd(wid));
    }
    // Count matches the closed-form expectation.
    size_t expected = static_cast<size_t>(
        (GetParam().range + GetParam().slide - 1) / GetParam().slide);
    EXPECT_LE(w.WindowsOf(ts).size(), expected + 1);
    EXPECT_GE(w.WindowsOf(ts).size(), 1u);
  }
}

TEST_P(WindowPropertyTest, MapWindowEndLeIsSound) {
  // A tuple suppressed by the mapped timestamp pattern must have ALL
  // its windows covered by the window-end constraint.
  WindowSpec w{GetParam().range, GetParam().slide};
  for (TimeMs bound = 0; bound < 15'000; bound += 777) {
    Result<AttrPattern> mapped = MapWindowEndToTimestamp(
        AttrPattern::Le(Value::Timestamp(bound)), w);
    ASSERT_TRUE(mapped.ok());
    for (TimeMs ts = 0; ts < 20'000; ts += 251) {
      if (!mapped.value().Matches(Value::Timestamp(ts))) continue;
      for (int64_t wid : w.WindowsOf(ts)) {
        EXPECT_LE(w.WindowEnd(wid), bound)
            << "ts " << ts << " suppressed but window end "
            << w.WindowEnd(wid) << " > bound " << bound;
      }
    }
  }
}

TEST_P(WindowPropertyTest, MapWindowEndRangeIsSound) {
  WindowSpec w{GetParam().range, GetParam().slide};
  Result<AttrPattern> mapped = MapWindowEndToTimestamp(
      AttrPattern::Range(Value::Timestamp(5'000),
                         Value::Timestamp(9'000)),
      w);
  if (!mapped.ok()) return;  // Unsupported is always sound
  for (TimeMs ts = 0; ts < 20'000; ts += 97) {
    if (!mapped.value().Matches(Value::Timestamp(ts))) continue;
    for (int64_t wid : w.WindowsOf(ts)) {
      EXPECT_GE(w.WindowEnd(wid), 5'000);
      EXPECT_LE(w.WindowEnd(wid), 9'000);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, WindowPropertyTest,
    ::testing::Values(WindowCase{1'000, 1'000},
                      WindowCase{3'000, 1'000},
                      WindowCase{5'000, 2'000},
                      WindowCase{60'000, 60'000}));

TEST(WindowMapTest, EqualityOnlyForTumbling) {
  EXPECT_TRUE(MapWindowEndToTimestamp(
                  AttrPattern::Eq(Value::Timestamp(3'000)),
                  WindowSpec{3'000, 1'000})
                  .status()
                  .IsUnsupported());
  Result<AttrPattern> r = MapWindowEndToTimestamp(
      AttrPattern::Eq(Value::Timestamp(3'000)),
      WindowSpec{1'000, 1'000});
  ASSERT_TRUE(r.ok());
  // ts in [2000, 2999].
  EXPECT_TRUE(r.value().Matches(Value::Timestamp(2'000)));
  EXPECT_TRUE(r.value().Matches(Value::Timestamp(2'999)));
  EXPECT_FALSE(r.value().Matches(Value::Timestamp(3'000)));
}

// ----------------------------------------------------- WindowAggregate

SchemaPtr GVSchema() {
  return Schema::Make({{"g", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kDouble}});
}

std::vector<TimedElement> AggStream() {
  // Two groups, two 1s windows, punctuated after each window.
  std::vector<TimedElement> out;
  auto add = [&](int64_t g, TimeMs ts, double v) {
    out.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(g).Ts(ts).D(v).Build()));
  };
  add(0, 100, 10);
  add(0, 200, 20);
  add(1, 300, 50);
  out.push_back(TimedElement::OfPunct(1'000, Punctuation(P("[*,<=t:999,*]"))));
  add(0, 1'100, 30);
  add(1, 1'200, 60);
  out.push_back(
      TimedElement::OfPunct(2'000, Punctuation(P("[*,<=t:1999,*]"))));
  return out;
}

WindowAggregateOptions AggOpt(AggKind kind) {
  WindowAggregateOptions opt;
  opt.ts_attr = 1;
  opt.group_attrs = {0};
  opt.agg_attr = 2;
  opt.kind = kind;
  opt.window = {1'000, 1'000};
  return opt;
}

TEST(WindowAggregateTest, AvgPerGroupPerWindow) {
  LinearPlan lp(GVSchema(), AggStream());
  lp.Add(std::make_unique<WindowAggregate>("avg", AggOpt(AggKind::kAvg)));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  ASSERT_EQ(sink->collected().size(), 4u);
  // Window 1 (ends 1000): group 0 avg 15, group 1 avg 50.
  const Tuple& t0 = sink->collected()[0].tuple;
  EXPECT_EQ(t0.value(0).timestamp_value(), 1'000);
  EXPECT_EQ(t0.value(1).int64_value(), 0);
  EXPECT_DOUBLE_EQ(t0.value(2).double_value(), 15.0);
  const Tuple& t1 = sink->collected()[1].tuple;
  EXPECT_DOUBLE_EQ(t1.value(2).double_value(), 50.0);
}

TEST(WindowAggregateTest, CountMaxMinSum) {
  struct KindCase {
    AggKind kind;
    double w1g0;
  };
  for (KindCase c : {KindCase{AggKind::kCount, 2},
                     KindCase{AggKind::kSum, 30},
                     KindCase{AggKind::kMax, 20},
                     KindCase{AggKind::kMin, 10}}) {
    LinearPlan lp(GVSchema(), AggStream());
    lp.Add(std::make_unique<WindowAggregate>("agg", AggOpt(c.kind)));
    CollectorSink* sink = lp.Finish();
    ASSERT_TRUE(lp.RunSync().ok());
    ASSERT_GE(sink->collected().size(), 1u);
    Result<double> v = sink->collected()[0].tuple.value(2).AsDouble();
    ASSERT_TRUE(v.ok());
    EXPECT_DOUBLE_EQ(v.value(), c.w1g0) << AggKindName(c.kind);
  }
}

TEST(WindowAggregateTest, PunctuationClosesWindowsAndPropagates) {
  LinearPlan lp(GVSchema(), AggStream());
  auto* agg = lp.Add(
      std::make_unique<WindowAggregate>("avg", AggOpt(AggKind::kAvg)));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  EXPECT_EQ(agg->state_size(), 0u);           // everything closed
  EXPECT_GE(sink->stats().puncts_in, 2u);     // output punctuation
}

TEST(WindowAggregateTest, EosFlushesOpenWindows) {
  std::vector<TimedElement> stream;
  stream.push_back(TimedElement::OfTuple(
      0, TupleBuilder().I64(0).Ts(100).D(7).Build()));
  // No punctuation at all: only EOS closes the window.
  LinearPlan lp(GVSchema(), std::move(stream));
  lp.Add(std::make_unique<WindowAggregate>("avg", AggOpt(AggKind::kAvg)));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  EXPECT_EQ(sink->consumed(), 1u);
}

TEST(WindowAggregateTest, SlidingWindowsMultiContribution) {
  WindowAggregateOptions opt = AggOpt(AggKind::kCount);
  opt.window = {2'000, 1'000};  // each tuple in 2 windows
  std::vector<TimedElement> stream;
  stream.push_back(TimedElement::OfTuple(
      1'500, TupleBuilder().I64(0).Ts(1'500).D(1).Build()));
  LinearPlan lp(GVSchema(), std::move(stream));
  auto* agg = lp.Add(std::make_unique<WindowAggregate>("count", opt));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  EXPECT_EQ(agg->updates_applied(), 2u);
  EXPECT_EQ(sink->consumed(), 2u);  // one result per window at EOS
}

// §3.5: AVERAGE receiving ¬[*,*,≥50] — purging window 4 at partial 51
// would be WRONG; a later tuple can drop the average below 50. The
// correct exploitation is an output guard.
TEST(WindowAggregateTest, AverageDoesNotPurgeOnValueBound) {
  WindowAggregate avg("avg", AggOpt(AggKind::kAvg));
  ASSERT_TRUE(avg.SetInputSchema(0, GVSchema()).ok());
  ASSERT_TRUE(avg.InferSchemas().ok());
  class NullCtx : public ExecContext {
   public:
    void EmitTuple(int, Tuple t) override { emitted.push_back(std::move(t)); }
    void EmitPunct(int, Punctuation) override {}
    void EmitEos(int) override {}
    void EmitFeedback(int, FeedbackPunctuation) override {}
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    std::vector<Tuple> emitted;
  };
  NullCtx ctx;
  ASSERT_TRUE(avg.Open(&ctx).ok());
  // Window 0, group 0 at partial average 51.
  ASSERT_TRUE(
      avg.ProcessTuple(0, TupleBuilder().I64(0).Ts(100).D(51).Build())
          .ok());
  ASSERT_TRUE(avg.ProcessControl(
                     0, ControlMessage::Feedback(FB("~[*,*,>=50]")))
                  .ok());
  EXPECT_EQ(avg.state_size(), 1u) << "AVERAGE must not purge (§3.5)";
  // The future tuple drags the average to 30: result must be emitted.
  ASSERT_TRUE(
      avg.ProcessTuple(0, TupleBuilder().I64(0).Ts(200).D(9).Build())
          .ok());
  ASSERT_TRUE(
      avg.ProcessPunctuation(0, Punctuation(P("[*,<=t:999,*]"))).ok());
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.emitted[0].value(2).double_value(), 30.0);
}

// §3.5: MAX receiving ¬[*,*,≥50] — a window at partial 51 can be
// purged (max only grows), but must be TOMBSTONED: a later value-40
// tuple would otherwise recreate the window with a wrong partial.
TEST(WindowAggregateTest, MaxPurgesAndTombstonesOnValueBound) {
  WindowAggregate maxop("max", AggOpt(AggKind::kMax));
  ASSERT_TRUE(maxop.SetInputSchema(0, GVSchema()).ok());
  ASSERT_TRUE(maxop.InferSchemas().ok());
  class NullCtx : public ExecContext {
   public:
    void EmitTuple(int, Tuple t) override { emitted.push_back(std::move(t)); }
    void EmitPunct(int, Punctuation) override {}
    void EmitEos(int) override {}
    void EmitFeedback(int, FeedbackPunctuation) override {}
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    std::vector<Tuple> emitted;
  };
  NullCtx ctx;
  ASSERT_TRUE(maxop.Open(&ctx).ok());
  ASSERT_TRUE(
      maxop.ProcessTuple(0, TupleBuilder().I64(0).Ts(100).D(51).Build())
          .ok());
  ASSERT_TRUE(maxop
                  .ProcessControl(0, ControlMessage::Feedback(
                                         FB("~[*,*,>=50]")))
                  .ok());
  EXPECT_EQ(maxop.state_size(), 0u) << "MAX may purge: max only grows";
  EXPECT_EQ(maxop.tombstone_count(), 1u);
  // The paper's pitfall: value 40 must NOT recreate the window.
  ASSERT_TRUE(
      maxop.ProcessTuple(0, TupleBuilder().I64(0).Ts(200).D(40).Build())
          .ok());
  EXPECT_EQ(maxop.state_size(), 0u)
      << "value-40 tuple recreated a purged window (§3.5 pitfall)";
  // And a fresh window whose max stays below 50 still emits.
  ASSERT_TRUE(
      maxop.ProcessTuple(0, TupleBuilder().I64(0).Ts(1'100).D(44).Build())
          .ok());
  ASSERT_TRUE(
      maxop.ProcessPunctuation(0, Punctuation(P("[*,<=t:1999,*]"))).ok());
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.emitted[0].value(2).double_value(), 44.0);
  // Tombstones for closed windows were reclaimed (§4.4).
  EXPECT_EQ(maxop.tombstone_count(), 0u);
}

TEST(WindowAggregateTest, MonotonicityTable) {
  EXPECT_EQ(WindowAggregate("a", AggOpt(AggKind::kCount)).monotonicity(),
            AggMonotonicity::kNonDecreasing);
  EXPECT_EQ(WindowAggregate("a", AggOpt(AggKind::kMax)).monotonicity(),
            AggMonotonicity::kNonDecreasing);
  EXPECT_EQ(WindowAggregate("a", AggOpt(AggKind::kMin)).monotonicity(),
            AggMonotonicity::kNonIncreasing);
  EXPECT_EQ(WindowAggregate("a", AggOpt(AggKind::kAvg)).monotonicity(),
            AggMonotonicity::kNone);
  WindowAggregateOptions sum = AggOpt(AggKind::kSum);
  EXPECT_EQ(WindowAggregate("a", sum).monotonicity(),
            AggMonotonicity::kNone);
  sum.assume_non_negative = true;
  EXPECT_EQ(WindowAggregate("a", sum).monotonicity(),
            AggMonotonicity::kNonDecreasing);
}

TEST(WindowAggregateTest, DemandedEmitsPartials) {
  WindowAggregate avg("avg", AggOpt(AggKind::kAvg));
  ASSERT_TRUE(avg.SetInputSchema(0, GVSchema()).ok());
  ASSERT_TRUE(avg.InferSchemas().ok());
  class NullCtx : public ExecContext {
   public:
    void EmitTuple(int, Tuple t) override { emitted.push_back(std::move(t)); }
    void EmitPunct(int, Punctuation) override {}
    void EmitEos(int) override {}
    void EmitFeedback(int, FeedbackPunctuation) override {}
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    std::vector<Tuple> emitted;
  };
  NullCtx ctx;
  ASSERT_TRUE(avg.Open(&ctx).ok());
  ASSERT_TRUE(
      avg.ProcessTuple(0, TupleBuilder().I64(3).Ts(100).D(10).Build())
          .ok());
  ASSERT_TRUE(
      avg.ProcessTuple(0, TupleBuilder().I64(4).Ts(150).D(99).Build())
          .ok());
  // Demand group 3 now.
  ASSERT_TRUE(
      avg.ProcessControl(0, ControlMessage::Feedback(FB("![*,3,*]")))
          .ok());
  ASSERT_EQ(avg.partials_emitted(), 1u);
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].value(1).int64_value(), 3);
  // State is untouched: exact result still comes at window close.
  EXPECT_EQ(avg.state_size(), 2u);
}

TEST(WindowAggregateTest, ViewerStyleGroupFeedbackGuardsUpdates) {
  LinearPlan lp(GVSchema(), AggStream());
  auto* agg = lp.Add(
      std::make_unique<WindowAggregate>("avg", AggOpt(AggKind::kAvg)));
  auto sent = std::make_shared<bool>(false);
  lp.Finish({}, [sent](const Tuple&,
                       TimeMs) -> std::vector<FeedbackPunctuation> {
    if (*sent) return {};
    *sent = true;
    // Ignore group 1 for all windows ending within [1000, 3000].
    return {FB("~[[t:1000..t:3000],1,*]")};
  });
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  opts.queue.page_size = 1;
  ASSERT_TRUE(lp.RunSync(opts).ok());
  EXPECT_GT(agg->stats().feedback_received, 0u);
  EXPECT_GT(agg->stats().input_guard_drops +
                agg->stats().output_guard_drops +
                agg->stats().state_purged,
            0u);
}

// Definition 1 (§4.1) on the aggregate's output guard: the run with
// feedback may lack only results the pattern matches, and keeps every
// other result of the run without it. The guard tests each staged
// result row in place. Under kOutputGuardOnly it is the whole exploit;
// an AVG bound on the aggregate value cannot purge (§3.5), so the
// default policy guards too.
TEST(WindowAggregateTest, OutputGuardKeepsDefinitionOne) {
  // Four groups in each of eight 1 s windows, punctuated after each.
  std::vector<TimedElement> in;
  TimeMs at = 0;
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 12; ++i) {
      in.push_back(TimedElement::OfTuple(
          at++, TupleBuilder()
                    .I64(i % 4)
                    .Ts(w * 1'000 + i * 50)
                    .D(static_cast<double>((w * 5 + i * 7) % 20))
                    .Build()));
    }
    in.push_back(TimedElement::OfPunct(
        at++, Punctuation(P("[*,<=t:" + std::to_string(w * 1'000 + 999) +
                            ",*]"))));
  }
  struct Case {
    const char* feedback;
    FeedbackPolicy policy;
  };
  for (const Case& c :
       {Case{"~[*,2,*]", FeedbackPolicy::kOutputGuardOnly},
        Case{"~[*,*,>=10]", FeedbackPolicy::kOutputGuardOnly},
        Case{"~[*,*,>=10]", FeedbackPolicy::kExploitAndPropagate}}) {
    SCOPED_TRACE(c.feedback);
    uint64_t drops = 0;
    auto run = [&](bool feedback) {
      WindowAggregateOptions opt = AggOpt(AggKind::kAvg);
      opt.feedback_policy = c.policy;
      opt.output_page_size = 3;  // several staged pages per window
      LinearPlan lp(GVSchema(), in);
      auto* agg = lp.Add(std::make_unique<WindowAggregate>("avg", opt));
      auto sent = std::make_shared<bool>(false);
      CollectorSink::FeedbackDriver driver = nullptr;
      if (feedback) {
        driver = [sent, &c](const Tuple&, TimeMs)
            -> std::vector<FeedbackPunctuation> {
          if (*sent) return {};
          *sent = true;
          return {FB(c.feedback)};
        };
      }
      lp.Finish({}, driver);
      SchedulerOptions sopts;
      sopts.source_batch_per_slice = 1;
      sopts.queue.page_size = 1;
      EXPECT_TRUE(lp.RunSync(sopts).ok());
      drops = agg->stats().output_guard_drops;
      EXPECT_EQ(agg->output_guards().total_blocked(), drops);
      return testing_util::TuplesOf(lp.sink()->collected());
    };
    const std::vector<Tuple> baseline = run(false);
    const std::vector<Tuple> exploited = run(true);
    EXPECT_GT(drops, 0u);
    EXPECT_LT(exploited.size(), baseline.size());
    ExploitationCheck check = CheckCorrectExploitation(
        baseline, exploited, FB(c.feedback).pattern());
    EXPECT_TRUE(check.correct) << check.ToString();
  }
}

}  // namespace
}  // namespace nstream
