#include <gtest/gtest.h>

#include "ops/duplicate.h"
#include "ops/exchange.h"
#include "ops/impute.h"
#include "ops/pace.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/symmetric_hash_join.h"
#include "ops/union_op.h"
#include "ops/window_aggregate.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::FB;
using testing_util::Int64Column;
using testing_util::LinearPlan;
using testing_util::P;

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
}

std::vector<TimedElement> Keys(std::initializer_list<int64_t> keys) {
  std::vector<Tuple> tuples;
  for (int64_t k : keys) {
    tuples.push_back(
        TupleBuilder().I64(k).D(static_cast<double>(k) * 10).Build());
  }
  return AtMillis(std::move(tuples));
}

// ----------------------------------------------------------------- Select

TEST(SelectTest, FeedbackAddsToCondition) {
  // §4.3: "assumed punctuation can simply be added to its select
  // condition".
  LinearPlan lp(KV(), Keys({1, 2, 3, 4, 5, 6}));
  auto* sel = lp.Add(Select::FromPattern("sel", P("[*,*]")));
  // Feedback ¬[>=4,*] arrives before the run via direct injection at
  // plan level: simulate by installing through ProcessControl after
  // Open (executor calls Open first, so we inject via a sink driver).
  auto sent = std::make_shared<bool>(false);
  lp.Finish({}, [sent](const Tuple&,
                       TimeMs) -> std::vector<FeedbackPunctuation> {
    if (*sent) return {};
    *sent = true;
    return {FB("~[>=4,*]")};
  });
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  opts.queue.page_size = 1;
  ASSERT_TRUE(lp.RunSync(opts).ok());
  EXPECT_GT(sel->stats().input_guard_drops, 0u);
  EXPECT_GT(sel->guards().total_installed(), 0u);
}

TEST(SelectTest, IgnorePolicyIsNullResponse) {
  LinearPlan lp(KV(), Keys({1, 2, 3, 4, 5, 6}));
  auto* sel = lp.Add(std::make_unique<Select>(
      "sel", [](const Tuple&) { return true; },
      SelectOptions{FeedbackPolicy::kIgnore}));
  auto sent = std::make_shared<bool>(false);
  CollectorSink* sink =
      lp.Finish({}, [sent](const Tuple&,
                           TimeMs) -> std::vector<FeedbackPunctuation> {
        if (*sent) return {};
        *sent = true;
        return {FB("~[>=1,*]")};
      });
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  opts.queue.page_size = 1;
  ASSERT_TRUE(lp.RunSync(opts).ok());
  EXPECT_EQ(sink->consumed(), 6u);  // nothing suppressed
  EXPECT_GT(sel->stats().feedback_ignored, 0u);
}

TEST(SelectTest, WrongArityFeedbackIgnored) {
  LinearPlan lp(KV(), Keys({1}));
  auto* sel = lp.Add(Select::FromPattern("sel", P("[*,*]")));
  lp.Finish({}, [](const Tuple&, TimeMs) {
    return std::vector<FeedbackPunctuation>{FB("~[1,2,3]")};
  });
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  // The tuple and EOS on separate pages: the Select must still be
  // running when the sink's feedback arrives.
  opts.queue.page_size = 1;
  ASSERT_TRUE(lp.RunSync(opts).ok());
  EXPECT_GT(sel->stats().feedback_ignored, 0u);
}

// ---------------------------------------------------------------- Project

TEST(ProjectTest, ReordersAndDropsAttrs) {
  LinearPlan lp(KV(), Keys({7}));
  lp.Add(std::make_unique<Project>("proj", std::vector<int>{1, 0}));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  ASSERT_EQ(sink->collected().size(), 1u);
  const Tuple& t = sink->collected()[0].tuple;
  EXPECT_DOUBLE_EQ(t.value(0).double_value(), 70.0);
  EXPECT_EQ(t.value(1).int64_value(), 7);
}

TEST(ProjectTest, PunctuationSurvivesOnlyIfConstraintsKept) {
  // [<=3, *] projected onto {0} keeps the claim; [*, <=30] projected
  // onto {0} must be dropped (the claim would silently widen).
  std::vector<TimedElement> elems = Keys({1});
  elems.push_back(TimedElement::OfPunct(10, Punctuation(P("[<=3,*]"))));
  elems.push_back(
      TimedElement::OfPunct(11, Punctuation(P("[*,<=30.0]"))));
  LinearPlan lp(KV(), std::move(elems));
  lp.Add(std::make_unique<Project>("proj", std::vector<int>{0}));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  EXPECT_EQ(sink->stats().puncts_in, 1u);  // only the kept-attr punct
}

TEST(ProjectTest, FeedbackMappedToInputSchema) {
  LinearPlan lp(KV(), Keys({1, 2, 3, 4, 5, 6, 7, 8}));
  auto* proj = lp.Add(
      std::make_unique<Project>("proj", std::vector<int>{1, 0}));
  auto sent = std::make_shared<bool>(false);
  lp.Finish({}, [sent](const Tuple&,
                       TimeMs) -> std::vector<FeedbackPunctuation> {
    if (*sent) return {};
    *sent = true;
    // Over the projected schema (v, k): suppress k >= 5.
    return {FB("~[*,>=5]")};
  });
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  opts.queue.page_size = 1;
  ASSERT_TRUE(lp.RunSync(opts).ok());
  EXPECT_GT(proj->stats().input_guard_drops, 0u);
  EXPECT_GT(proj->stats().feedback_propagated, 0u);
  // The installed guard is in INPUT terms: (k, v) with k>=5.
  EXPECT_TRUE(proj->input_guards().Blocks(
      TupleBuilder().I64(6).D(0).Build()));
}

// -------------------------------------------------------------- Duplicate

TEST(DuplicateTest, CopiesToAllOutputs) {
  QueryPlan plan;
  auto* src = plan.AddOp(
      std::make_unique<VectorSource>("src", KV(), Keys({1, 2, 3})));
  auto* dup = plan.AddOp(std::make_unique<Duplicate>("dup", 2));
  auto* s1 = plan.AddOp(std::make_unique<CollectorSink>("s1"));
  auto* s2 = plan.AddOp(std::make_unique<CollectorSink>("s2"));
  ASSERT_TRUE(plan.Connect(*src, *dup).ok());
  ASSERT_TRUE(plan.Connect(*dup, 0, *s1, 0).ok());
  ASSERT_TRUE(plan.Connect(*dup, 1, *s2, 0).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  EXPECT_EQ(s1->consumed(), 3u);
  EXPECT_EQ(s2->consumed(), 3u);
}

TEST(DuplicateTest, ExploitsOnlyWhenAllConsumersAgree) {
  // §4.1: DUPLICATE's outputs must stay identical — one consumer's
  // assumed feedback alone is held; when the second consumer issues a
  // covering pattern, the subset is dead and dropping begins.
  Duplicate dup("dup", 2);
  ASSERT_TRUE(dup.SetInputSchema(0, KV()).ok());
  ASSERT_TRUE(dup.InferSchemas().ok());

  // Drive handlers directly (no executor): a stub context recording
  // emissions per port.
  class StubCtx : public ExecContext {
   public:
    void EmitTuple(int port, Tuple) override { ++counts[port]; }
    void EmitPunct(int, Punctuation) override {}
    void EmitEos(int) override {}
    void EmitFeedback(int, FeedbackPunctuation fb) override {
      relayed.push_back(std::move(fb));
    }
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    std::map<int, int> counts;
    std::vector<FeedbackPunctuation> relayed;
  };
  StubCtx ctx;
  ASSERT_TRUE(dup.Open(&ctx).ok());

  Tuple covered = TupleBuilder().I64(9).D(1).Build();
  ASSERT_TRUE(dup.ProcessTuple(0, covered).ok());
  EXPECT_EQ(ctx.counts[0], 1);
  EXPECT_EQ(ctx.counts[1], 1);

  // Output 0 disclaims k>=9; output 1 has not: still copied to both.
  ASSERT_TRUE(dup.ProcessControl(
                     0, ControlMessage::Feedback(FB("~[>=9,*]")))
                  .ok());
  ASSERT_TRUE(dup.ProcessTuple(0, covered).ok());
  EXPECT_EQ(ctx.counts[0], 2);
  EXPECT_EQ(ctx.counts[1], 2);
  EXPECT_TRUE(ctx.relayed.empty());  // not yet propagated

  // Output 1 agrees: now the subset is dead end-to-end.
  ASSERT_TRUE(dup.ProcessControl(
                     1, ControlMessage::Feedback(FB("~[>=9,*]")))
                  .ok());
  ASSERT_TRUE(dup.ProcessTuple(0, covered).ok());
  EXPECT_EQ(ctx.counts[0], 2);  // dropped for both
  EXPECT_EQ(ctx.counts[1], 2);
  EXPECT_EQ(ctx.relayed.size(), 1u);  // and relayed upstream
  EXPECT_GT(dup.stats().input_guard_drops, 0u);
}

// ------------------------------------------------------------ Union/PACE

TEST(UnionTest, MergesAndEnforcesSchemaAgreement) {
  QueryPlan plan;
  auto* a = plan.AddOp(
      std::make_unique<VectorSource>("a", KV(), Keys({1, 2})));
  auto* b = plan.AddOp(
      std::make_unique<VectorSource>("b", KV(), Keys({3})));
  auto* u = plan.AddOp(std::make_unique<UnionOp>("union", 2));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*a, 0, *u, 0).ok());
  ASSERT_TRUE(plan.Connect(*b, 0, *u, 1).ok());
  ASSERT_TRUE(plan.Connect(*u, *sink).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  EXPECT_EQ(sink->consumed(), 3u);
}

TEST(UnionTest, WatermarkPunctuationIsMinAcrossInputs) {
  UnionOp u("u", 2);
  ASSERT_TRUE(u.SetInputSchema(0, KV()).ok());
  ASSERT_TRUE(u.SetInputSchema(1, KV()).ok());
  ASSERT_TRUE(u.InferSchemas().ok());
  class PunctCtx : public ExecContext {
   public:
    void EmitTuple(int, Tuple) override {}
    void EmitPunct(int, Punctuation p) override {
      puncts.push_back(std::move(p));
    }
    void EmitEos(int) override {}
    void EmitFeedback(int, FeedbackPunctuation) override {}
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    std::vector<Punctuation> puncts;
  };
  PunctCtx ctx;
  ASSERT_TRUE(u.Open(&ctx).ok());
  // Input 0 punctuates through 100: output punct must wait for input 1.
  ASSERT_TRUE(u.ProcessPunctuation(0, Punctuation(P("[<=100,*]"))).ok());
  EXPECT_TRUE(ctx.puncts.empty());
  // Input 1 punctuates through 50: output = min(100, 50) = 50.
  ASSERT_TRUE(u.ProcessPunctuation(1, Punctuation(P("[<=50,*]"))).ok());
  ASSERT_EQ(ctx.puncts.size(), 1u);
  EXPECT_EQ(ctx.puncts[0].pattern(), P("[<=50,*]"));
  // Input 1 advances to 200: output = min(100, 200) = 100.
  ASSERT_TRUE(u.ProcessPunctuation(1, Punctuation(P("[<=200,*]"))).ok());
  ASSERT_EQ(ctx.puncts.size(), 2u);
  EXPECT_EQ(ctx.puncts[1].pattern(), P("[<=100,*]"));
}

/// Records a union's output punctuation and EOS.
class UnionCtx : public ExecContext {
 public:
  void EmitTuple(int, Tuple) override {}
  void EmitPunct(int, Punctuation p) override {
    puncts.push_back(p.pattern());
  }
  void EmitEos(int) override { ++eos; }
  void EmitFeedback(int, FeedbackPunctuation) override {}
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}
  std::vector<PunctPattern> puncts;
  int eos = 0;
};

void OpenUnion(UnionOp* u, UnionCtx* ctx) {
  for (int i = 0; i < u->num_inputs(); ++i) {
    ASSERT_TRUE(u->SetInputSchema(i, KV()).ok());
  }
  ASSERT_TRUE(u->InferSchemas().ok());
  ASSERT_TRUE(u->Open(ctx).ok());
}

TEST(UnionTest, GeneralPatternWaitsForEveryInput) {
  UnionOp u("u", 2);
  UnionCtx ctx;
  OpenUnion(&u, &ctx);
  // A guard the claim covers must outlive one input's word: input 1
  // may still send k = 9.
  ASSERT_TRUE(
      u.ProcessControl(0, ControlMessage::Feedback(FB("~[>=9,*]"))).ok());
  ASSERT_EQ(u.guards().size(), 1);
  ASSERT_TRUE(u.ProcessPunctuation(0, Punctuation(P("[>=5,*]"))).ok());
  EXPECT_TRUE(ctx.puncts.empty());
  EXPECT_EQ(u.guards().size(), 1);
  ASSERT_TRUE(u.ProcessPunctuation(1, Punctuation(P("[>=5,*]"))).ok());
  ASSERT_EQ(ctx.puncts.size(), 1u);
  EXPECT_EQ(ctx.puncts[0], P("[>=5,*]"));
  EXPECT_EQ(u.guards().size(), 0);
}

TEST(UnionTest, InputAtEosNoLongerHoldsTheWatermark) {
  UnionOp u("u", 2);
  UnionCtx ctx;
  OpenUnion(&u, &ctx);
  ASSERT_TRUE(u.ProcessPunctuation(0, Punctuation(P("[<=100,*]"))).ok());
  ASSERT_TRUE(u.ProcessPunctuation(1, Punctuation(P("[<=50,*]"))).ok());
  ASSERT_EQ(ctx.puncts.size(), 1u);
  // Input 1 ends: it will send nothing at all, so input 0's bound
  // holds on the output.
  ASSERT_TRUE(u.ProcessEos(1).ok());
  ASSERT_EQ(ctx.puncts.size(), 2u);
  EXPECT_EQ(ctx.puncts[1], P("[<=100,*]"));
  ASSERT_TRUE(u.ProcessPunctuation(0, Punctuation(P("[<=200,*]"))).ok());
  ASSERT_EQ(ctx.puncts.size(), 3u);
  EXPECT_EQ(ctx.puncts[2], P("[<=200,*]"));
  ASSERT_TRUE(u.ProcessEos(0).ok());
  EXPECT_EQ(ctx.puncts.size(), 3u);
  EXPECT_EQ(ctx.eos, 1);
}

// ------------------------------------ Feedback purges of queued input

/// Reports that every PurgeInput removed kPurged queued tuples.
class PurgingCtx : public ExecContext {
 public:
  static constexpr int kPurged = 7;
  void EmitTuple(int, Tuple) override {}
  void EmitPunct(int, Punctuation) override {}
  void EmitEos(int) override {}
  void EmitFeedback(int, FeedbackPunctuation) override {}
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}
  int PurgeInput(int, const PunctPattern&) override { return kPurged; }
};

/// Opens `op` with `in` on every input, sends it each (output port,
/// assumed feedback) pair, and returns its work_avoided count.
uint64_t WorkAvoidedAfter(
    std::unique_ptr<Operator> op, const SchemaPtr& in,
    const std::vector<std::pair<int, std::string>>& feedback) {
  PurgingCtx ctx;
  for (int i = 0; i < op->num_inputs(); ++i) {
    EXPECT_TRUE(op->SetInputSchema(i, in).ok());
  }
  EXPECT_TRUE(op->InferSchemas().ok());
  EXPECT_TRUE(op->Open(&ctx).ok());
  for (const auto& [port, fb] : feedback) {
    EXPECT_TRUE(
        op->ProcessControl(port, ControlMessage::Feedback(FB(fb))).ok());
  }
  return op->stats().work_avoided;
}

TEST(FeedbackPurgeTest, QueuedInputPurgesCountAsWorkAvoided) {
  // Every exploiter adds what PurgeInput removed from its queued input
  // to work_avoided, as the join's gate and thrifty paths do.
  constexpr uint64_t k = PurgingCtx::kPurged;
  EXPECT_EQ(WorkAvoidedAfter(Select::FromPattern("sel", P("[*,*]")), KV(),
                             {{0, "~[>=4,*]"}}),
            k);
  EXPECT_EQ(WorkAvoidedAfter(
                std::make_unique<Project>("proj", std::vector<int>{1, 0}),
                KV(), {{0, "~[*,>=5]"}}),
            k);
  EXPECT_EQ(WorkAvoidedAfter(std::make_unique<Duplicate>("dup", 2), KV(),
                             {{0, "~[>=9,*]"}, {1, "~[>=9,*]"}}),
            k);
  EXPECT_EQ(WorkAvoidedAfter(std::make_unique<UnionOp>("union", 2), KV(),
                             {{0, "~[>=9,*]"}}),
            2 * k);  // one purge per input

  // Exchange: a key-pinned claim purges on its owner shard's word
  // alone (sent to every port; the others ignore it), and a general
  // claim once every shard has made it.
  ExchangeOptions xopt;
  xopt.partition_keys = {0};
  EXPECT_EQ(WorkAvoidedAfter(
                std::make_unique<Exchange>("xchg", 2, xopt), KV(),
                {{0, "~[3,*]"}, {1, "~[3,*]"}, {0, "~[*,>=5.0]"},
                 {1, "~[*,>=5.0]"}}),
            2 * k);

  // WindowAggregate: a group claim, relayed and purged upstream.
  WindowAggregateOptions agg;
  agg.ts_attr = 1;
  agg.group_attrs = {0};
  agg.agg_attr = 2;
  agg.window = {1'000, 1'000};
  EXPECT_EQ(WorkAvoidedAfter(
                std::make_unique<WindowAggregate>("avg", agg),
                Schema::Make({{"g", ValueType::kInt64},
                              {"ts", ValueType::kTimestamp},
                              {"v", ValueType::kDouble}}),
                {{0, "~[*,1,*]"}}),
            k);

  // Join: a claim on the join attribute purges both inputs.
  JoinOptions join;
  join.left_keys = {0};
  join.right_keys = {0};
  EXPECT_EQ(WorkAvoidedAfter(
                std::make_unique<SymmetricHashJoin>("join", join), KV(),
                {{0, "~[4,*,*]"}}),
            2 * k);
}

TEST(PaceTest, UnionOnlyModeCountsButPasses) {
  QueryPlan plan;
  std::vector<TimedElement> fast = Keys({0});
  fast[0].element.mutable_tuple().mutable_value(0) = Value::Int64(100);
  auto* a = plan.AddOp(std::make_unique<VectorSource>(
      "fast", KV(), std::move(fast)));
  auto* b = plan.AddOp(std::make_unique<VectorSource>(
      "slow", KV(), Keys({1})));  // k=1 is 99 behind the watermark
  PaceOptions popt;
  popt.ts_attr = 0;
  popt.tolerance_ms = 10;
  popt.mode = PaceMode::kUnionOnly;
  auto* pace = plan.AddOp(std::make_unique<Pace>("pace", 2, popt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*a, 0, *pace, 0).ok());
  ASSERT_TRUE(plan.Connect(*b, 0, *pace, 1).ok());
  ASSERT_TRUE(plan.Connect(*pace, *sink).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  EXPECT_EQ(sink->consumed(), 2u);  // late tuple still passes
  EXPECT_EQ(pace->input_stats(1).late, 1u);
  EXPECT_EQ(pace->input_stats(1).dropped, 0u);
}

TEST(PaceTest, DropModeEnforcesBound) {
  QueryPlan plan;
  std::vector<TimedElement> fast = Keys({0});
  fast[0].element.mutable_tuple().mutable_value(0) = Value::Int64(100);
  auto* a = plan.AddOp(std::make_unique<VectorSource>(
      "fast", KV(), std::move(fast)));
  auto* b = plan.AddOp(
      std::make_unique<VectorSource>("slow", KV(), Keys({1})));
  PaceOptions popt;
  popt.ts_attr = 0;
  popt.tolerance_ms = 10;
  popt.mode = PaceMode::kDrop;
  auto* pace = plan.AddOp(std::make_unique<Pace>("pace", 2, popt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*a, 0, *pace, 0).ok());
  ASSERT_TRUE(plan.Connect(*b, 0, *pace, 1).ok());
  ASSERT_TRUE(plan.Connect(*pace, *sink).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  EXPECT_EQ(pace->input_stats(1).dropped, 1u);
  EXPECT_EQ(pace->stats().feedback_sent, 0u);  // kDrop: no feedback
}

// ----------------------------------------------------------------- Impute

TEST(ImputeTest, FillsNullsAndFlags) {
  SchemaPtr schema = Schema::Make({{"v", ValueType::kDouble},
                                   {"flag", ValueType::kInt64}});
  std::vector<TimedElement> elems;
  elems.push_back(TimedElement::OfTuple(
      0, TupleBuilder().Null().I64(0).Build()));
  elems.push_back(TimedElement::OfTuple(
      1, TupleBuilder().D(5.0).I64(0).Build()));
  LinearPlan lp(schema, std::move(elems));
  ImputeOptions iopt;
  iopt.value_attr = 0;
  iopt.flag_attr = 1;
  iopt.cost_ms = 1.0;
  auto* imp = lp.Add(std::make_unique<Impute>(
      "imp", [](const Tuple&) { return 42.0; }, iopt));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  ASSERT_EQ(sink->collected().size(), 2u);
  EXPECT_DOUBLE_EQ(sink->collected()[0].tuple.value(0).double_value(),
                   42.0);
  EXPECT_EQ(sink->collected()[0].tuple.value(1).int64_value(), 1);
  EXPECT_DOUBLE_EQ(sink->collected()[1].tuple.value(0).double_value(),
                   5.0);
  EXPECT_EQ(sink->collected()[1].tuple.value(1).int64_value(), 0);
  EXPECT_EQ(imp->imputations(), 1u);
}

TEST(ImputeTest, FeedbackGuardsAndCountsAvoidedWork) {
  SchemaPtr schema = Schema::Make({{"ts", ValueType::kTimestamp},
                                   {"v", ValueType::kDouble}});
  std::vector<TimedElement> elems;
  for (int i = 0; i < 10; ++i) {
    elems.push_back(TimedElement::OfTuple(
        i, TupleBuilder().Ts(i * 100).Null().Build()));
  }
  LinearPlan lp(schema, std::move(elems));
  ImputeOptions iopt;
  iopt.value_attr = 1;
  auto* imp = lp.Add(std::make_unique<Impute>(
      "imp", [](const Tuple&) { return 1.0; }, iopt));
  auto sent = std::make_shared<bool>(false);
  lp.Finish({}, [sent](const Tuple&,
                       TimeMs) -> std::vector<FeedbackPunctuation> {
    if (*sent) return {};
    *sent = true;
    return {FB("~[<=t:500,*]")};
  });
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  opts.queue.page_size = 1;
  ASSERT_TRUE(lp.RunSync(opts).ok());
  EXPECT_GT(imp->stats().work_avoided, 0u);
  EXPECT_LT(imp->imputations(), 10u);
}

}  // namespace
}  // namespace nstream
