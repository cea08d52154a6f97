#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "ops/symmetric_hash_join.h"
#include "recovery/snapshot.h"
#include "testing/join_oracle.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::FB;
using testing_util::P;

SchemaPtr ASchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"t", ValueType::kInt64},
                       {"id", ValueType::kInt64}});
}
SchemaPtr BSchema() {
  return Schema::Make({{"t", ValueType::kInt64},
                       {"id", ValueType::kInt64},
                       {"b", ValueType::kInt64}});
}

struct JoinHarness {
  QueryPlan plan;
  SymmetricHashJoin* join = nullptr;
  CollectorSink* sink = nullptr;

  JoinHarness(std::vector<TimedElement> left,
              std::vector<TimedElement> right, JoinOptions jopt,
              CollectorSink::FeedbackDriver driver = nullptr) {
    auto* l = plan.AddOp(
        std::make_unique<VectorSource>("A", ASchema(), std::move(left)));
    auto* r = plan.AddOp(std::make_unique<VectorSource>(
        "B", BSchema(), std::move(right)));
    join = plan.AddOp(
        std::make_unique<SymmetricHashJoin>("join", std::move(jopt)));
    sink = plan.AddOp(std::make_unique<CollectorSink>(
        "sink", CollectorSinkOptions{}, std::move(driver)));
    EXPECT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
    EXPECT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
    EXPECT_TRUE(plan.Connect(*join, *sink).ok());
  }

  Status Run() {
    SyncExecutor exec;
    return exec.Run(&plan);
  }
};

JoinOptions BasicJoin() {
  JoinOptions j;
  j.left_keys = {1, 2};
  j.right_keys = {0, 1};
  return j;
}

TimedElement LeftT(TimeMs at, int64_t a, int64_t t, int64_t id) {
  return TimedElement::OfTuple(
      at, TupleBuilder().I64(a).I64(t).I64(id).Build());
}
TimedElement RightT(TimeMs at, int64_t t, int64_t id, int64_t b) {
  return TimedElement::OfTuple(
      at, TupleBuilder().I64(t).I64(id).I64(b).Build());
}

TEST(JoinTest, InnerEquiJoinOutputsLJR) {
  JoinHarness h({LeftT(0, 50, 3, 4), LeftT(1, 60, 9, 9)},
                {RightT(0, 3, 4, 77)}, BasicJoin());
  ASSERT_TRUE(h.Run().ok());
  ASSERT_EQ(h.sink->consumed(), 1u);
  // Output schema: (a, t, id, b).
  EXPECT_EQ(h.sink->collected()[0].tuple,
            (TupleBuilder().I64(50).I64(3).I64(4).I64(77).Build()));
  EXPECT_EQ(h.join->output_schema(0)->ToString(),
            "(a:int64, t:int64, id:int64, b:int64)");
}

TEST(JoinTest, SymmetricProbeBothDirections) {
  // Match found regardless of arrival order.
  JoinHarness h({LeftT(5, 1, 7, 7)}, {RightT(0, 7, 7, 2)}, BasicJoin());
  ASSERT_TRUE(h.Run().ok());
  EXPECT_EQ(h.sink->consumed(), 1u);
}

TEST(JoinTest, Table2JoinAttrFeedbackPurgesBothAndGuards) {
  auto sent = std::make_shared<bool>(false);
  JoinHarness h(
      {LeftT(0, 1, 3, 4), LeftT(1, 2, 5, 6)},
      {RightT(0, 8, 8, 1)}, BasicJoin(),
      [sent](const Tuple&, TimeMs) -> std::vector<FeedbackPunctuation> {
        if (*sent) return {};
        *sent = true;
        return {FB("~[*,3,4,*]")};
      });
  // Force feedback to land before the join finishes: fine-grained
  // batches.
  SchedulerOptions opts;
  opts.source_batch_per_slice = 1;
  opts.queue.page_size = 1;
  // Trigger the driver: need at least one result first — add a
  // matching pair on a different key.
  // (Keep it simple: feedback may arrive after processing; the purge
  // still removes stored entries.)
  SyncExecutor exec(opts);
  ASSERT_TRUE(exec.Run(&h.plan).ok());
  (void)opts;
  // Entries with (t,id)=(3,4) were purged from the left table if the
  // feedback landed; the guard exists either way once received.
  if (h.join->stats().feedback_received > 0) {
    EXPECT_TRUE(h.join->input_guards(0).Blocks(
        TupleBuilder().I64(99).I64(3).I64(4).Build()));
    EXPECT_TRUE(h.join->input_guards(1).Blocks(
        TupleBuilder().I64(3).I64(4).I64(0).Build()));
  }
}

TEST(JoinTest, FeedbackDirectInjection) {
  // Drive the operator directly for deterministic Table 2 checks.
  SymmetricHashJoin join("join", BasicJoin());
  ASSERT_TRUE(join.SetInputSchema(0, ASchema()).ok());
  ASSERT_TRUE(join.SetInputSchema(1, BSchema()).ok());
  ASSERT_TRUE(join.InferSchemas().ok());
  class StubCtx : public ExecContext {
   public:
    void EmitTuple(int, Tuple) override {}
    void EmitPunct(int, Punctuation) override {}
    void EmitEos(int) override {}
    void EmitFeedback(int port, FeedbackPunctuation fb) override {
      relayed.emplace_back(port, std::move(fb));
    }
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    std::vector<std::pair<int, FeedbackPunctuation>> relayed;
  };
  StubCtx ctx;
  ASSERT_TRUE(join.Open(&ctx).ok());

  // Populate both hash tables.
  ASSERT_TRUE(
      join.ProcessTuple(0, TupleBuilder().I64(50).I64(3).I64(4).Build())
          .ok());
  ASSERT_TRUE(
      join.ProcessTuple(0, TupleBuilder().I64(60).I64(9).I64(9).Build())
          .ok());
  ASSERT_TRUE(
      join.ProcessTuple(1, TupleBuilder().I64(3).I64(4).I64(7).Build())
          .ok());
  EXPECT_EQ(join.table_size(0), 2u);
  EXPECT_EQ(join.table_size(1), 1u);

  // Row 1: ¬[*,3,4,*] purges matching entries from BOTH tables and
  // relays to both inputs.
  ASSERT_TRUE(join.ProcessControl(
                     0, ControlMessage::Feedback(FB("~[*,3,4,*]")))
                  .ok());
  EXPECT_EQ(join.table_size(0), 1u);
  EXPECT_EQ(join.table_size(1), 0u);
  ASSERT_EQ(ctx.relayed.size(), 2u);
  EXPECT_EQ(ctx.relayed[0].second.pattern(), P("[*,3,4]"));
  EXPECT_EQ(ctx.relayed[1].second.pattern(), P("[3,4,*]"));

  // Row 2: ¬[60,*,*,*] touches the left side only.
  ctx.relayed.clear();
  ASSERT_TRUE(join.ProcessControl(
                     0, ControlMessage::Feedback(FB("~[60,*,*,*]")))
                  .ok());
  EXPECT_EQ(join.table_size(0), 0u);
  ASSERT_EQ(ctx.relayed.size(), 1u);
  EXPECT_EQ(ctx.relayed[0].first, 0);

  // Row 4: ¬[l,*,*,r] — no safe propagation; output guard only. The
  // paper's <49,2,3,50> must keep flowing.
  ctx.relayed.clear();
  ASSERT_TRUE(join.ProcessControl(
                     0, ControlMessage::Feedback(FB("~[50,*,*,50]")))
                  .ok());
  EXPECT_TRUE(ctx.relayed.empty());
  EXPECT_FALSE(join.output_guards().empty());
  EXPECT_FALSE(join.output_guards().Blocks(
      TupleBuilder().I64(49).I64(2).I64(3).I64(50).Build()));
  EXPECT_TRUE(join.output_guards().Blocks(
      TupleBuilder().I64(50).I64(2).I64(3).I64(50).Build()));
}

TEST(JoinTest, ConservativeNoRetractionOnlyGuardsOutput) {
  JoinOptions j = BasicJoin();
  j.conservative_no_retraction = true;
  SymmetricHashJoin join("join", j);
  ASSERT_TRUE(join.SetInputSchema(0, ASchema()).ok());
  ASSERT_TRUE(join.SetInputSchema(1, BSchema()).ok());
  ASSERT_TRUE(join.InferSchemas().ok());
  class StubCtx : public ExecContext {
   public:
    void EmitTuple(int, Tuple) override {}
    void EmitPunct(int, Punctuation) override {}
    void EmitEos(int) override {}
    void EmitFeedback(int, FeedbackPunctuation) override { ++relays; }
    void EmitControl(int, ControlMessage) override {}
    TimeMs NowMs() const override { return 0; }
    void ChargeMs(double) override {}
    int relays = 0;
  };
  StubCtx ctx;
  ASSERT_TRUE(join.Open(&ctx).ok());
  ASSERT_TRUE(
      join.ProcessTuple(0, TupleBuilder().I64(50).I64(3).I64(4).Build())
          .ok());
  ASSERT_TRUE(join.ProcessControl(
                     0, ControlMessage::Feedback(FB("~[*,3,4,*]")))
                  .ok());
  EXPECT_EQ(join.table_size(0), 1u);  // §4.4: no purge
  EXPECT_EQ(ctx.relays, 0);
  EXPECT_FALSE(join.output_guards().empty());
}

JoinOptions WindowedJoin() {
  JoinOptions j;
  j.left_keys = {2};    // id
  j.right_keys = {1};   // id
  j.left_ts = 1;        // t as timestamp
  j.right_ts = 0;
  j.window_join = true;
  j.window = {1'000, 1'000};
  return j;
}

TEST(JoinTest, WindowJoinOnlyMatchesSameWindow) {
  JoinHarness h({LeftT(0, 1, 100, 7), LeftT(1, 2, 1'500, 7)},
                {RightT(0, 120, 7, 5)}, WindowedJoin());
  ASSERT_TRUE(h.Run().ok());
  EXPECT_EQ(h.sink->consumed(), 1u);  // only the window-0 pair
}

TEST(JoinTest, PunctuationPurgesOtherSidesClosedWindows) {
  std::vector<TimedElement> left = {LeftT(0, 1, 100, 7)};
  left.push_back(
      TimedElement::OfPunct(2, Punctuation(P("[*,<=t:999,*]"))));
  std::vector<TimedElement> right = {RightT(0, 100, 7, 5)};
  right.push_back(
      TimedElement::OfPunct(3, Punctuation(P("[<=t:999,*,*]"))));
  JoinHarness h(std::move(left), std::move(right), WindowedJoin());
  ASSERT_TRUE(h.Run().ok());
  EXPECT_EQ(h.sink->consumed(), 1u);
  EXPECT_EQ(h.join->table_size(0), 0u);
  EXPECT_EQ(h.join->table_size(1), 0u);
  EXPECT_GE(h.sink->stats().puncts_in, 1u);  // output punctuation
}

TEST(JoinTest, LeftOuterEmitsUnmatchedWithNulls) {
  JoinOptions j = WindowedJoin();
  j.left_outer = true;
  JoinHarness h({LeftT(0, 1, 100, 7), LeftT(1, 2, 200, 8)},
                {RightT(0, 120, 7, 5)}, j);
  ASSERT_TRUE(h.Run().ok());
  ASSERT_EQ(h.sink->consumed(), 2u);
  int nulls = 0;
  for (const auto& c : h.sink->collected()) {
    if (c.tuple.value(3).is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 1);  // id=8 had no match
}

TEST(JoinTest, ThriftyEmptyWindowSendsFeedback) {
  JoinOptions j = WindowedJoin();
  j.thrifty = true;
  j.thrifty_probe_input = 0;
  // Left (probe) has data only in window 0; punctuates through window
  // 2. Windows 1 and 2 are empty -> feedback.
  std::vector<TimedElement> left = {LeftT(0, 1, 100, 7)};
  left.push_back(
      TimedElement::OfPunct(5, Punctuation(P("[*,<=t:2999,*]"))));
  std::vector<TimedElement> right = {RightT(0, 100, 7, 5)};
  JoinHarness h(std::move(left), std::move(right), j);
  ASSERT_TRUE(h.Run().ok());
  EXPECT_GE(h.join->thrifty_feedbacks(), 2u);
}

TEST(JoinTest, ThriftyRejectsUnsafeOuterConfig) {
  JoinOptions j = WindowedJoin();
  j.thrifty = true;
  j.thrifty_probe_input = 1;  // feedback would suppress LEFT tuples...
  j.left_outer = true;        // ...that outer join must still emit
  SymmetricHashJoin join("join", j);
  ASSERT_TRUE(join.SetInputSchema(0, ASchema()).ok());
  ASSERT_TRUE(join.SetInputSchema(1, BSchema()).ok());
  EXPECT_FALSE(join.InferSchemas().ok());
}

TEST(JoinTest, ImpatientSendsDesiredForArrivedData) {
  JoinOptions j = WindowedJoin();
  j.impatient = true;
  j.impatient_data_input = 0;
  JoinHarness h({LeftT(0, 1, 100, 7), LeftT(1, 1, 150, 7)},
                {RightT(5, 100, 7, 5)}, j);
  ASSERT_TRUE(h.Run().ok());
  // One desired feedback per distinct (window, key), not per tuple.
  EXPECT_EQ(h.join->impatient_feedbacks(), 1u);
}

TEST(JoinTest, GateSuppressesInnerMatchButKeepsOuterRow) {
  JoinOptions j = WindowedJoin();
  j.left_outer = true;
  j.left_gate = [](const Tuple& t) {
    return t.value(0).int64_value() < 45;  // "congested" joins
  };
  j.gate_feedback_horizon = 2;
  JoinHarness h({LeftT(0, 60, 100, 7)},  // a=60: uncongested, gated
                {RightT(1, 120, 7, 5)}, j);
  ASSERT_TRUE(h.Run().ok());
  ASSERT_EQ(h.sink->consumed(), 1u);
  EXPECT_TRUE(h.sink->collected()[0].tuple.value(3).is_null())
      << "gated row must outer-emit, not inner-join";
  EXPECT_EQ(h.join->gate_feedbacks(), 1u);
}

TEST(JoinTest, DifferentialCorrectnessUnderJoinAttrFeedback) {
  // Definition 1 end-to-end: run with and without feedback; anything
  // missing must match the feedback pattern. By default the join
  // purges and guards both inputs; under conservative_no_retraction it
  // only guards its output, testing each staged row in place; a
  // left-outer join must not turn a purged match into a NULL-padded
  // row.
  struct Case {
    const char* name;
    bool conservative;
    bool left_outer;
  };
  auto make_side = [](bool left) {
    std::vector<TimedElement> out;
    for (int i = 0; i < 40; ++i) {
      if (left) {
        out.push_back(LeftT(i, i % 5, i % 4, i % 3));
      } else {
        out.push_back(RightT(i, i % 4, i % 3, i % 7));
      }
    }
    return out;
  };
  for (const Case& c : {Case{"purge", false, false},
                        Case{"conservative", true, false},
                        Case{"left-outer", false, true},
                        Case{"left-outer conservative", true, true}}) {
    SCOPED_TRACE(c.name);
    uint64_t output_drops = 0;
    auto run = [&](bool feedback) {
      auto sent = std::make_shared<bool>(false);
      CollectorSink::FeedbackDriver driver = nullptr;
      if (feedback) {
        driver = [sent](const Tuple&,
                        TimeMs) -> std::vector<FeedbackPunctuation> {
          if (*sent) return {};
          *sent = true;
          return {FB("~[*,2,1,*]")};
        };
      }
      JoinOptions jopt = BasicJoin();
      jopt.conservative_no_retraction = c.conservative;
      jopt.left_outer = c.left_outer;
      JoinHarness h(make_side(true), make_side(false), jopt, driver);
      SchedulerOptions opts;
      opts.source_batch_per_slice = 1;
      opts.queue.page_size = 1;
      SyncExecutor exec(opts);
      EXPECT_TRUE(exec.Run(&h.plan).ok());
      output_drops = h.join->stats().output_guard_drops;
      EXPECT_EQ(h.join->output_guards().total_blocked(), output_drops);
      return testing_util::TuplesOf(h.sink->collected());
    };
    std::vector<Tuple> baseline = run(false);
    std::vector<Tuple> exploited = run(true);
    EXPECT_LT(exploited.size(), baseline.size());
    if (c.conservative) {
      EXPECT_GT(output_drops, 0u);
    }
    ExploitationCheck check =
        CheckCorrectExploitation(baseline, exploited, P("[*,2,1,*]"));
    EXPECT_TRUE(check.correct) << check.ToString();
  }
}

// ---------------------------------------------------------------------------
// Window-scoped table state: one arena-backed table per input per window
// ---------------------------------------------------------------------------

/// Records emitted tuples. Results reach it through the base
/// ExecContext::EmitPage, which promotes each to an owned tuple; the
/// join stages them until a flush point, so tests call FlushStaged()
/// where an executor would park the task.
class RecordingCtx : public ExecContext {
 public:
  void EmitTuple(int, Tuple t) override { tuples.push_back(std::move(t)); }
  void EmitPunct(int, Punctuation) override {}
  void EmitEos(int) override {}
  void EmitFeedback(int, FeedbackPunctuation) override {}
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}

  std::vector<std::string> Rendered() const {
    std::vector<std::string> out;
    for (const Tuple& t : tuples) out.push_back(t.ToString());
    return out;
  }

  std::vector<Tuple> tuples;
};

std::unique_ptr<SymmetricHashJoin> OpenJoin(const JoinOptions& jopt,
                                            SchemaPtr left,
                                            SchemaPtr right,
                                            ExecContext* ctx) {
  auto join = std::make_unique<SymmetricHashJoin>("join", jopt);
  EXPECT_TRUE(join->SetInputSchema(0, std::move(left)).ok());
  EXPECT_TRUE(join->SetInputSchema(1, std::move(right)).ok());
  EXPECT_TRUE(join->InferSchemas().ok());
  EXPECT_TRUE(join->Open(ctx).ok());
  return join;
}

/// RecordingCtx that also records each emitted page's layout.
class PageLayoutCtx : public RecordingCtx {
 public:
  void EmitPage(int port, Page&& page) override {
    columnar.push_back(page.is_columnar());
    RecordingCtx::EmitPage(port, std::move(page));
  }
  std::vector<bool> columnar;
};

TEST(JoinTest, GuardedJoinStagesColumnarPages) {
  // An output guard tests each staged row in place, so a guarded join
  // still emits columnar pages, and counts its drops as before.
  JoinOptions jopt = BasicJoin();
  jopt.conservative_no_retraction = true;  // feedback: output guard only
  jopt.output_page_size = 4;
  PageLayoutCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(jopt, ASchema(), BSchema(), &ctx);
  ASSERT_TRUE(join->ProcessControl(
                      0, ControlMessage::Feedback(FB("~[*,2,1,*]")))
                  .ok());
  ASSERT_EQ(join->output_guards().size(), 1);
  // Each key (t, id) = (i % 4, i % 3) holds two left rows and one right
  // row: 24 results, of which key (2, 1)'s two are blocked.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(join->ProcessTuple(
                        0, TupleBuilder().I64(i).I64(i % 4).I64(i % 3).Build())
                    .ok());
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(join->ProcessTuple(1, TupleBuilder()
                                          .I64(i % 4)
                                          .I64(i % 3)
                                          .I64(100 + i)
                                          .Build())
                    .ok());
  }
  ASSERT_TRUE(join->FlushStaged().ok());
  EXPECT_EQ(ctx.tuples.size(), 22u);
  for (const Tuple& t : ctx.tuples) {
    EXPECT_FALSE(t.value(1).int64_value() == 2 &&
                 t.value(2).int64_value() == 1)
        << t.ToString();
  }
  EXPECT_EQ(join->stats().output_guard_drops, 2u);
  EXPECT_EQ(join->output_guards().total_blocked(), 2u);
  EXPECT_EQ(join->joined_count(), 22u);
  EXPECT_EQ(ctx.columnar, std::vector<bool>(6, true));  // 4+4+4+4+4+2
}

TEST(JoinTest, RestoredStagedRowsEmitOnceInOrder) {
  // A snapshot lays the live staged block out as rows; a restored
  // join reads them back as rows. Either flushes that page before its
  // next result stages, so every result is emitted once, in the order
  // of a join never snapshotted.
  JoinOptions jopt = BasicJoin();
  jopt.output_page_size = 64;  // nothing flushes for being full
  auto left = [](SymmetricHashJoin* j, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(j->ProcessTuple(0, TupleBuilder()
                                         .I64(i)
                                         .I64(i % 4)
                                         .I64(i % 3)
                                         .Build())
                      .ok());
    }
  };
  auto right = [](SymmetricHashJoin* j, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(j->ProcessTuple(1, TupleBuilder()
                                         .I64(i % 4)
                                         .I64(i % 3)
                                         .I64(100 + i)
                                         .Build())
                      .ok());
    }
  };
  auto first = [&](SymmetricHashJoin* j) {
    left(j, 0, 12);
    right(j, 0, 6);  // six results, staged
  };
  auto rest = [&](SymmetricHashJoin* j) {
    right(j, 6, 12);
    left(j, 12, 24);
    ASSERT_TRUE(j->FlushStaged().ok());
  };
  RecordingCtx plain_ctx;
  std::unique_ptr<SymmetricHashJoin> plain =
      OpenJoin(jopt, ASchema(), BSchema(), &plain_ctx);
  first(plain.get());
  rest(plain.get());
  ASSERT_EQ(plain_ctx.tuples.size(), 24u);

  RecordingCtx orig_ctx;
  std::unique_ptr<SymmetricHashJoin> orig =
      OpenJoin(jopt, ASchema(), BSchema(), &orig_ctx);
  first(orig.get());
  ASSERT_TRUE(orig_ctx.tuples.empty());
  SnapshotWriter w;
  ASSERT_TRUE(orig->SnapshotState(&w).ok());
  rest(orig.get());
  EXPECT_EQ(orig_ctx.Rendered(), plain_ctx.Rendered());

  RecordingCtx twin_ctx;
  std::unique_ptr<SymmetricHashJoin> twin =
      OpenJoin(jopt, ASchema(), BSchema(), &twin_ctx);
  SnapshotReader r(w.buffer());
  ASSERT_TRUE(twin->RestoreState(&r).ok());
  rest(twin.get());
  EXPECT_EQ(twin_ctx.Rendered(), plain_ctx.Rendered());
}

TEST(JoinWindowTables, ClosingPunctuationDropsWholeWindows) {
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(WindowedJoin(), ASchema(), BSchema(), &ctx);
  // Three windows on both inputs; window w holds w + 2 rows per side.
  size_t rows_in_later_windows = 0;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < w + 2; ++i) {
      const int64_t ts = 1'000 * w + 10 * i;
      ASSERT_TRUE(join->ProcessTuple(
                          0, TupleBuilder().I64(i).I64(ts).I64(i).Build())
                      .ok());
      ASSERT_TRUE(join->ProcessTuple(
                          1, TupleBuilder().I64(ts).I64(i).I64(i).Build())
                      .ok());
      if (w > 0) rows_in_later_windows += 2;
    }
  }
  EXPECT_EQ(join->table_size(0) + join->table_size(1),
            rows_in_later_windows + 4);
  const size_t all_bytes = join->state_bytes();
  EXPECT_GT(all_bytes, 0u);

  // Both inputs punctuate through window 0: only windows 1-2 remain.
  ASSERT_TRUE(
      join->ProcessPunctuation(0, Punctuation(P("[*,<=t:999,*]"))).ok());
  ASSERT_TRUE(
      join->ProcessPunctuation(1, Punctuation(P("[<=t:999,*,*]"))).ok());
  EXPECT_EQ(join->table_size(0) + join->table_size(1),
            rows_in_later_windows);
  EXPECT_LT(join->state_bytes(), all_bytes);
  EXPECT_GT(join->state_bytes(), 0u);
  // The surviving windows still join: a window-2 probe finds its row.
  ASSERT_TRUE(join->FlushStaged().ok());
  const size_t before = ctx.tuples.size();
  ASSERT_TRUE(join->ProcessTuple(
                      0, TupleBuilder().I64(9).I64(2'010).I64(1).Build())
                  .ok());
  ASSERT_TRUE(join->FlushStaged().ok());
  EXPECT_EQ(ctx.tuples.size(), before + 1);

  // Punctuating through the last window leaves nothing behind.
  ASSERT_TRUE(
      join->ProcessPunctuation(0, Punctuation(P("[*,<=t:2999,*]"))).ok());
  ASSERT_TRUE(
      join->ProcessPunctuation(1, Punctuation(P("[<=t:2999,*,*]"))).ok());
  EXPECT_EQ(join->table_size(0), 0u);
  EXPECT_EQ(join->table_size(1), 0u);
  EXPECT_EQ(join->state_bytes(), 0u);
}

TEST(JoinWindowTables, ClosedWindowChunksRefillTheNextWindow) {
  // Twenty equal windows, each fed and closed on a fresh thread the way
  // a pooled task moves between workers. Every table chunk comes from
  // the process-wide reserve, which may map slabs for the first window;
  // every later window refills from the chunks earlier closes gave
  // back, whichever thread gave them, so it maps no slab.
  constexpr int kWindows = 20;
  constexpr int kRows = 600;  // 28-byte rows: two chunks per side
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(WindowedJoin(), ASchema(), BSchema(), &ctx);
  ChunkReserveStats first;
  for (int w = 0; w < kWindows; ++w) {
    const ChunkReserveStats before = GetChunkReserveStats();
    std::thread worker([&join, w] {
      for (int i = 0; i < kRows; ++i) {
        const int64_t ts = 1'000 * w + i;
        ASSERT_TRUE(join->ProcessTuple(
                            0, TupleBuilder().I64(i).I64(ts).I64(i).Build())
                        .ok());
        ASSERT_TRUE(join->ProcessTuple(
                            1, TupleBuilder().I64(ts).I64(i).I64(i).Build())
                        .ok());
      }
      const std::string through = std::to_string(1'000 * w + 999);
      ASSERT_TRUE(join->ProcessPunctuation(
                          0, Punctuation(P("[*,<=t:" + through + ",*]")))
                      .ok());
      ASSERT_TRUE(join->ProcessPunctuation(
                          1, Punctuation(P("[<=t:" + through + ",*,*]")))
                      .ok());
    });
    worker.join();
    ASSERT_EQ(join->table_size(0) + join->table_size(1), 0u);
    EXPECT_EQ(join->state_bytes(), 0u) << "window " << w;
    const ChunkReserveStats after = GetChunkReserveStats();
    const uint64_t takes = (after.carved - before.carved) +
                           (after.idle_hits - before.idle_hits) +
                           (after.retaken - before.retaken);
    if (w == 0) {
      first = after;
      EXPECT_GE(takes, 4u);  // the two row chunks of each side
      continue;
    }
    EXPECT_EQ(after.slabs, first.slabs) << "window " << w << " mapped a slab";
    EXPECT_EQ(after.carved, first.carved)
        << "window " << w << " carved a fresh chunk";
  }
  EXPECT_EQ(ctx.tuples.size(), static_cast<size_t>(kWindows * kRows));
}

TEST(JoinWindowTables, RepeatedFeedbackPurgesStayBounded) {
  // A non-windowed join has one table for the life of the query. Each
  // cycle inserts kRows left rows, then feedback purges 3/4 of them
  // plus the previous cycle's survivors (80% of the live rows). The
  // table must compact, or purged rows' bytes would pile up forever.
  constexpr int kRows = 400;
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(BasicJoin(), ASchema(), BSchema(), &ctx);
  size_t first_cycle_bytes = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (int i = 0; i < kRows; ++i) {
      const int64_t a = i % 4 == 0 ? 1'000 + cycle : cycle;
      ASSERT_TRUE(join->ProcessTuple(0, TupleBuilder()
                                            .I64(a)
                                            .I64(cycle * kRows + i)
                                            .I64(i % 7)
                                            .Build())
                      .ok());
    }
    ASSERT_TRUE(join->ProcessControl(
                        0, ControlMessage::Feedback(FB(
                               "~[" + std::to_string(cycle) + ",*,*,*]")))
                    .ok());
    if (cycle > 0) {
      ASSERT_TRUE(join->ProcessControl(
                          0, ControlMessage::Feedback(
                                 FB("~[" + std::to_string(999 + cycle) +
                                    ",*,*,*]")))
                      .ok());
    }
    ASSERT_EQ(join->table_size(0), static_cast<size_t>(kRows / 4));
    if (cycle == 0) first_cycle_bytes = join->state_bytes();
    EXPECT_LE(join->state_bytes(), 3 * first_cycle_bytes)
        << "cycle " << cycle;
  }
  // Compacted rows keep joining: the last cycle's survivor with
  // (t, id) = (39 * kRows, 0) matches.
  ctx.tuples.clear();
  ASSERT_TRUE(join->ProcessTuple(
                      1, TupleBuilder().I64(39 * kRows).I64(0).I64(5).Build())
                  .ok());
  ASSERT_TRUE(join->FlushStaged().ok());
  ASSERT_EQ(ctx.tuples.size(), 1u);
  EXPECT_EQ(ctx.tuples[0],
            TupleBuilder().I64(1'039).I64(39 * kRows).I64(0).I64(5).Build());
}

// Strings past the 15-byte inline cap, so they are stored as bytes.
std::string LongString(const char* tag, int i) {
  return std::string(tag) + "-well-past-the-inline-cap-" + std::to_string(i);
}

SchemaPtr StringKeySchema() {
  return Schema::Make({{"k", ValueType::kString},
                       {"ts", ValueType::kInt64},
                       {"s", ValueType::kString}});
}

Tuple StringRow(const char* tag, int i) {
  Tuple t = TupleBuilder()
                .S(LongString("key", i % 5))
                .I64(i * 100)
                .S(LongString(tag, i))
                .Build();
  t.set_id(i);
  return t;
}

JoinOptions StringKeyJoin() {
  JoinOptions j;
  j.left_keys = {0};
  j.right_keys = {0};
  j.left_ts = 1;
  j.right_ts = 1;
  j.window_join = true;
  j.window = {1'000, 1'000};
  j.left_outer = true;
  return j;
}

/// Refills pooled arena chunks with junk, so bytes a stored row still
/// borrowed from a destroyed page would read back corrupted.
void ScribblePooledChunks(Page* junk) {
  TupleArena* arena = junk->arena();
  ASSERT_NE(arena, nullptr);
  for (int i = 0; i < 16; ++i) {
    const size_t n = TupleArena::kChunkBytes - 64;
    std::memset(arena->Allocate(n, 8), 'X', n);
  }
}

TEST(JoinWindowTables, StringsOutliveTheirInputPage) {
  // Reference: owned tuples through the element walk.
  RecordingCtx ref_ctx;
  std::unique_ptr<SymmetricHashJoin> ref = OpenJoin(
      StringKeyJoin(), StringKeySchema(), StringKeySchema(), &ref_ctx);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(ref->ProcessTuple(0, StringRow("left", i)).ok());
  }
  for (int i = 0; i < 12; i += 2) {
    ASSERT_TRUE(ref->ProcessTuple(1, StringRow("right", i)).ok());
  }
  ASSERT_TRUE(ref->ProcessEos(0).ok());
  ASSERT_TRUE(ref->ProcessEos(1).ok());
  ASSERT_GT(ref_ctx.tuples.size(), 6u);

  for (bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "columnar page" : "row page");
    RecordingCtx ctx;
    std::unique_ptr<SymmetricHashJoin> join = OpenJoin(
        StringKeyJoin(), StringKeySchema(), StringKeySchema(), &ctx);
    {
      // The left rows arrive in one page whose arena holds every
      // string byte; the page dies right after the join consumes it.
      Page page;
      if (columnar) {
        ColumnarBlock* b = page.BeginColumnar(3, 12);
        ASSERT_NE(b, nullptr);
        for (int i = 0; i < 12; ++i) {
          const Tuple t = StringRow("left", i);
          const uint32_t r = b->AddRow(t.id(), t.arrival_ms());
          for (int c = 0; c < 3; ++c) b->Set(c, r, t.value(c));
        }
        ASSERT_TRUE(b->column(2)[0].is_borrowed_string());
      } else {
        for (int i = 0; i < 12; ++i) {
          const Tuple src = StringRow("left", i);
          Tuple t(page.arena(), 3);
          for (int c = 0; c < 3; ++c) t.Append(src.value(c));
          t.set_id(src.id());
          page.AddTuple(std::move(t));
        }
        ASSERT_TRUE(page.elements()[0].tuple().value(2).is_borrowed_string());
      }
      ASSERT_TRUE(join->ProcessPage(0, std::move(page), nullptr).ok());
    }
    Page junk;
    ScribblePooledChunks(&junk);
    // Right rows probe the stored left strings (keys and payloads),
    // then EOS emits the unmatched left rows from the window tables.
    for (int i = 0; i < 12; i += 2) {
      ASSERT_TRUE(join->ProcessTuple(1, StringRow("right", i)).ok());
    }
    ASSERT_TRUE(join->ProcessEos(0).ok());
    ASSERT_TRUE(join->ProcessEos(1).ok());
    EXPECT_EQ(ctx.Rendered(), ref_ctx.Rendered());
  }
}

TEST(JoinWindowTables, StoredRowCost) {
  // Arity-3 int64 rows in one window: an 8-byte header and five 4-byte
  // offset slots (id, arrival and the three values) each, plus 8 bytes
  // of index per row at a power of two (bucket heads and tails).
  constexpr size_t kRows = 4'096;
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(WindowedJoin(), ASchema(), BSchema(), &ctx);
  for (size_t i = 0; i < kRows; ++i) {
    const auto n = static_cast<int64_t>(i);
    ASSERT_TRUE(join->ProcessTuple(0, TupleBuilder()
                                          .I64(n % 100)
                                          .I64(n % 1'000)
                                          .I64(n % 7)
                                          .Build())
                    .ok());
  }
  ASSERT_EQ(join->table_size(0), kRows);
  EXPECT_LE(join->state_bytes(), 36 * kRows);
}

SchemaPtr WideSchema(int arity) {
  std::vector<Field> fields;
  for (int i = 0; i < arity; ++i) {
    fields.emplace_back("c" + std::to_string(i), ValueType::kInt64);
  }
  return Schema::Make(std::move(fields));
}

TEST(JoinWindowTables, RowsUpToOneChunkWide) {
  // A stored row is an 8-byte header and a slot each for its id, its
  // arrival and its values, and it must fit one 16 KiB arena chunk
  // (whose base already has the row's alignment). Rows 2^40 apart
  // widen every slot to 8 bytes: 2045 values then fill a chunk exactly
  // and still join; one more is rejected before any tuple arrives.
  constexpr int kWidest = 2'045;
  constexpr int64_t kFar = int64_t{1} << 40;
  JoinOptions jopt;
  jopt.left_keys = {kWidest - 1};
  jopt.right_keys = {0};
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(jopt, WideSchema(kWidest), WideSchema(2), &ctx);
  for (int r = 0; r < 3; ++r) {
    std::vector<Value> wide;
    for (int i = 0; i < kWidest; ++i) {
      wide.push_back(Value::Int64(r * kFar + i));
    }
    Tuple t(std::move(wide));
    t.set_id(r * kFar);
    t.set_arrival_ms(r * kFar);
    ASSERT_TRUE(join->ProcessTuple(0, t).ok());
  }
  // Three rows of 8 + 8 * (2045 + 2) bytes, one chunk each.
  EXPECT_EQ(join->state_bytes(),
            3 * TupleArena::kChunkBytes + 16 * 2 * sizeof(uint32_t));
  ASSERT_EQ(join->table_size(0), 3u);
  // The key: the last value of the row with r = 1.
  ASSERT_TRUE(join->ProcessTuple(1, TupleBuilder()
                                        .I64(kFar + kWidest - 1)
                                        .I64(-1)
                                        .Build())
                  .ok());
  ASSERT_TRUE(join->FlushStaged().ok());
  ASSERT_EQ(ctx.tuples.size(), 1u);
  const Tuple& out = ctx.tuples[0];
  ASSERT_EQ(out.size(), kWidest + 1);
  EXPECT_EQ(out.id(), kFar);
  EXPECT_EQ(out.value(0), Value::Int64(kFar));
  EXPECT_EQ(out.value(kWidest - 1), Value::Int64(kFar + kWidest - 1));
  EXPECT_EQ(out.value(kWidest), Value::Int64(-1));

  for (int side = 0; side < 2; ++side) {
    SymmetricHashJoin wider("wider", jopt);
    ASSERT_TRUE(wider
                    .SetInputSchema(0, WideSchema(side == 0 ? kWidest + 1
                                                            : kWidest))
                    .ok());
    ASSERT_TRUE(
        wider.SetInputSchema(1, WideSchema(side == 1 ? kWidest + 1 : 2))
            .ok());
    EXPECT_EQ(wider.InferSchemas().code(), StatusCode::kInvalidArgument)
        << "input " << side;
  }
}

TEST(JoinWindowTables, FeedbackPurgesOnlyTheWindowsItNames) {
  // Left rows with one key in windows 0-3, then feedback pinning the
  // left timestamp to window 2. Window 2's rows go, and so does a
  // window-0 row whose timestamp is a double inside window 2's span:
  // WidOf files a non-integral timestamp in window 0, so window 0 is
  // always walked. The other windows keep every row.
  constexpr int kPerWindow = 5;
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(WindowedJoin(), ASchema(), BSchema(), &ctx);
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < kPerWindow; ++i) {
      ASSERT_TRUE(join->ProcessTuple(0, TupleBuilder()
                                            .I64(i)
                                            .I64(1'000 * w + 10 * i)
                                            .I64(7)
                                            .Build())
                      .ok());
    }
  }
  ASSERT_TRUE(
      join->ProcessTuple(0, TupleBuilder().I64(9).D(2'500.5).I64(7).Build())
          .ok());
  ASSERT_EQ(join->table_size(0), 4u * kPerWindow + 1);
  ASSERT_TRUE(join->ProcessControl(0, ControlMessage::Feedback(
                                          FB("~[*,[2000..2999],*,*,*]")))
                  .ok());
  EXPECT_EQ(join->table_size(0), 3u * kPerWindow);

  // Closing the windows one at a time shows what each still held.
  const size_t held[4] = {kPerWindow, kPerWindow, 0, kPerWindow};
  size_t left = join->table_size(0);
  for (int w = 0; w < 4; ++w) {
    const std::string through = std::to_string(1'000 * w + 999);
    ASSERT_TRUE(join->ProcessPunctuation(
                        1, Punctuation(P("[<=t:" + through + ",*,*]")))
                    .ok());
    EXPECT_EQ(left - join->table_size(0), held[w]) << "window " << w;
    left = join->table_size(0);
  }
  EXPECT_EQ(left, 0u);
}

// ---- Every value kind through the window tables ----

/// One of each value kind a slot encodes, with numeric values that
/// are equal across types (3 and 3.0, 4 and t:4, 0 and -0.0),
/// strings on both sides of the 15-byte inline cap, and NaN, which
/// equals only NaN.
std::vector<Value> ValueKinds() {
  std::vector<Value> kinds = {
      Value::Null(),       Value::Bool(true),   Value::Bool(false),
      Value::Int64(3),     Value::Int64(1),     Value::Int64(0),
      Value::Timestamp(4), Value::Int64(4),     Value::Double(3.0),
      Value::Double(2.5),  Value::Double(-0.0),
  };
  for (size_t len : {0, 8, 9, 15, 16, 40}) {
    kinds.push_back(
        Value::String(std::string(len, static_cast<char>('a' + len % 26))));
  }
  kinds.push_back(Value::Double(std::numeric_limits<double>::quiet_NaN()));
  return kinds;
}

/// Type, id and exact bits of every value (a double's sign and NaN
/// payload included), so equal-comparing values of other types or
/// bits still differ.
std::string Exact(const Tuple& t) {
  std::string out = "#" + std::to_string(t.id());
  for (int i = 0; i < t.size(); ++i) {
    const Value& v = t.value(i);
    out += std::string(" ") + ValueTypeName(v.type()) + ":";
    if (v.type() == ValueType::kDouble) {
      out += std::to_string(std::bit_cast<uint64_t>(v.double_value()));
    } else {
      out += v.ToString();
    }
  }
  return out;
}

SchemaPtr KindsLeftSchema() {  // k, ts, p (purge tag), a, s
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kInt64},
                       {"p", ValueType::kInt64},
                       {"a", ValueType::kDouble},
                       {"s", ValueType::kString}});
}
SchemaPtr KindsRightSchema() {  // k, ts, b
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kInt64},
                       {"b", ValueType::kString}});
}

JoinOptions KindsJoin(bool batched) {
  JoinOptions j;
  j.left_keys = {0};
  j.right_keys = {0};
  j.left_ts = 1;
  j.right_ts = 1;
  j.window_join = true;
  j.window = {1'000, 1'000};
  j.left_outer = true;
  j.page_batched_probe = batched;
  return j;
}

/// Even rows keep the schema's types, so their table's first row sets
/// them; odd rows take every kind in turn, so most carry their own.
/// Timestamps spread over windows 0 and 1, or window 1 alone from
/// `min_ts` = 1000.
Tuple KindsRow(bool left, int i, int64_t min_ts = 0) {
  const std::vector<Value> kinds = ValueKinds();
  const auto pick = [&](int n, size_t of) {
    return kinds[static_cast<size_t>(n) % of];
  };
  const int64_t ts = min_ts + (i * 37) % (2'000 - min_ts);
  TupleBuilder b;
  if (i % 2 == 0) {
    b.I64(i % 5).I64(ts);
    if (left) b.I64(i / 2 % 4).D(0.5 * i);
    b.S(std::string(static_cast<size_t>(i % 20), 'x'));
  } else {
    b.V(pick(i / 2, kinds.size())).I64(ts);
    if (left) b.I64(i / 2 % 4).V(pick(3 * i + 1, kinds.size()));
    b.V(pick(5 * i + 2, kinds.size()));
  }
  Tuple t = b.Build();
  t.set_id(left ? i : 1'000 + i);
  return t;
}

/// A row page of KindsRow(left, i, min_ts) for i in [from, to), their
/// strings in the page's arena.
Page KindsPage(bool left, int from, int to, int64_t min_ts = 0) {
  Page page;
  for (int i = from; i < to; ++i) {
    const Tuple src = KindsRow(left, i, min_ts);
    Tuple t(page.arena(), static_cast<size_t>(src.size()));
    for (int c = 0; c < src.size(); ++c) t.Append(src.value(c));
    t.set_id(src.id());
    page.AddTuple(std::move(t));
  }
  return page;
}

/// The join's contract, one stored row at a time: a tuple joins every
/// live row of the other input in its window whose key is Value-equal,
/// in arrival order; a purge removes left rows with p >= 1; EOS emits
/// unmatched live left rows with NULLs in id order.
struct KindsOracle {
  struct Stored {
    Tuple t;
    bool matched = false;
    bool live = true;
  };
  std::vector<Stored> rows[2];
  std::vector<std::string> out;
  int cross_type = 0;  // matches whose keys differ in type

  static int64_t Wid(const Tuple& t) {
    return t.value(1).int64_value() / 1'000;
  }
  void Emit(const Tuple& l, const Tuple* r) {
    std::vector<Value> v;
    for (int i = 0; i < l.size(); ++i) v.push_back(l.value(i));
    v.push_back(r != nullptr ? r->value(1) : Value::Null());
    v.push_back(r != nullptr ? r->value(2) : Value::Null());
    Tuple joined(std::move(v));
    joined.set_id(l.id());
    out.push_back(Exact(joined));
  }
  void Arrive(int port, const Tuple& t) {
    bool matched = false;
    for (Stored& s : rows[1 - port]) {
      if (!s.live || Wid(s.t) != Wid(t) || !(s.t.value(0) == t.value(0))) {
        continue;
      }
      matched = true;
      cross_type += s.t.value(0).type() != t.value(0).type();
      if (port == 0) {
        Emit(t, &s.t);
      } else {
        s.matched = true;
        Emit(s.t, &t);
      }
    }
    rows[port].push_back({t, matched});
  }
  void PurgeLeft() {
    for (Stored& s : rows[0]) {
      if (s.t.value(2).int64_value() >= 1) s.live = false;
    }
  }
  void Eos() {
    std::vector<const Stored*> unmatched;
    for (const Stored& s : rows[0]) {
      if (s.live && !s.matched) unmatched.push_back(&s);
    }
    std::stable_sort(unmatched.begin(), unmatched.end(),
                     [](const Stored* a, const Stored* b) {
                       return a->t.id() < b->t.id();
                     });
    for (const Stored* s : unmatched) Emit(s->t, nullptr);
  }
};

std::vector<std::string> ExactAll(const RecordingCtx& ctx, size_t from) {
  std::vector<std::string> out;
  for (size_t i = from; i < ctx.tuples.size(); ++i) {
    out.push_back(Exact(ctx.tuples[i]));
  }
  return out;
}

TEST(JoinWindowTables, EveryValueKindRoundTrips) {
  constexpr int kLeft = 160;
  constexpr int kRight = 120;
  KindsOracle oracle;
  for (int i = 0; i < kLeft / 2; ++i) oracle.Arrive(0, KindsRow(true, i));
  for (int i = 0; i < kRight / 2; ++i) oracle.Arrive(1, KindsRow(false, i));
  for (int i = kLeft / 2; i < kLeft; ++i) {
    oracle.Arrive(0, KindsRow(true, i));
  }
  oracle.PurgeLeft();
  const size_t oracle_at_snapshot = oracle.out.size();
  for (int i = kRight / 2; i < kRight; ++i) {
    oracle.Arrive(1, KindsRow(false, i, 1'000));
  }
  oracle.Eos();
  ASSERT_GT(oracle.out.size(), 100u);
  ASSERT_GT(oracle.cross_type, 0);

  // Left rows, right rows probing them, left rows probing those, then
  // a purge of 3 of every 4 left rows (the tables compact).
  auto fill = [&](SymmetricHashJoin* j) {
    ASSERT_TRUE(j->ProcessPage(0, KindsPage(true, 0, kLeft / 2), nullptr).ok());
    ASSERT_TRUE(
        j->ProcessPage(1, KindsPage(false, 0, kRight / 2), nullptr).ok());
    ASSERT_TRUE(
        j->ProcessPage(0, KindsPage(true, kLeft / 2, kLeft), nullptr).ok());
    const size_t before = j->state_bytes();
    ASSERT_TRUE(j->ProcessControl(
                     0, ControlMessage::Feedback(FB("~[*,*,>=1,*,*,*,*]")))
                    .ok());
    EXPECT_LT(j->state_bytes(), before);
    ASSERT_TRUE(j->FlushStaged().ok());
  };
  // More right rows probe the compacted left rows of window 1; EOS
  // emits the unmatched ones as outer rows, so window 0's show which
  // rows kept their matched flag through compaction.
  auto finish = [&](SymmetricHashJoin* j) {
    ASSERT_TRUE(j->ProcessPage(
                     1, KindsPage(false, kRight / 2, kRight, 1'000), nullptr)
                    .ok());
    ASSERT_TRUE(j->ProcessEos(0).ok());
    ASSERT_TRUE(j->ProcessEos(1).ok());
  };

  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = OpenJoin(
      KindsJoin(true), KindsLeftSchema(), KindsRightSchema(), &ctx);
  fill(join.get());
  ASSERT_EQ(ctx.tuples.size(), oracle_at_snapshot);
  SnapshotWriter w;
  ASSERT_TRUE(join->SnapshotState(&w).ok());
  const std::string snap = w.buffer();
  finish(join.get());
  EXPECT_EQ(ExactAll(ctx, 0), oracle.out);

  // The element walk stores and decodes the same rows.
  RecordingCtx element_ctx;
  std::unique_ptr<SymmetricHashJoin> element =
      OpenJoin(KindsJoin(false), KindsLeftSchema(), KindsRightSchema(),
               &element_ctx);
  fill(element.get());
  finish(element.get());
  EXPECT_EQ(ExactAll(element_ctx, 0), ExactAll(ctx, 0));

  // A join restored from the snapshot re-snapshots to the same bytes
  // and finishes like the original.
  RecordingCtx twin_ctx;
  std::unique_ptr<SymmetricHashJoin> twin = OpenJoin(
      KindsJoin(true), KindsLeftSchema(), KindsRightSchema(), &twin_ctx);
  SnapshotReader r(snap);
  ASSERT_TRUE(twin->RestoreState(&r).ok());
  SnapshotWriter again;
  ASSERT_TRUE(twin->SnapshotState(&again).ok());
  EXPECT_EQ(again.buffer(), snap);
  finish(twin.get());
  EXPECT_EQ(ExactAll(twin_ctx, 0), ExactAll(ctx, oracle_at_snapshot));
}


// ---- Narrow and wide slots ----

SchemaPtr KtvSchema() {  // k, ts, v
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kInt64},
                       {"v", ValueType::kInt64}});
}

JoinOptions KtvJoin(bool left_outer) {
  JoinOptions j;
  j.left_keys = {0};
  j.right_keys = {0};
  j.left_ts = 1;
  j.right_ts = 1;
  j.window_join = true;
  j.window = {1'000, 1'000};
  j.left_outer = left_outer;
  return j;
}

Tuple Ktv(Value k, int64_t ts, Value v, int64_t id, TimeMs arrival = 0) {
  Tuple t = TupleBuilder().V(std::move(k)).I64(ts).V(std::move(v)).Build();
  t.set_id(id);
  t.set_arrival_ms(arrival);
  return t;
}

/// A stored row as a snapshot records it: each value with its type and
/// exact bits, the id and the arrival.
std::string StoredForm(const Tuple& t) {
  return Exact(t) + " @" + std::to_string(t.arrival_ms());
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// The rows of input `side` in a join snapshot (format version 3), in
/// snapshot order, as StoredForm.
std::vector<std::string> SnapshotRows(const std::string& snap, int side) {
  SnapshotReader r(snap);
  uint32_t inputs = 0;
  bool flag = false;
  EXPECT_TRUE(r.ReadU32(&inputs).ok());
  // Each input's EOS flag, then the operator's finished flag.
  for (uint32_t i = 0; i <= inputs; ++i) EXPECT_TRUE(r.ReadBool(&flag).ok());
  std::vector<std::string> rows;
  for (int s = 0; s <= side; ++s) {
    uint32_t groups = 0;
    EXPECT_TRUE(r.ReadU32(&groups).ok());
    for (uint32_t g = 0; g < groups; ++g) {
      uint64_t hash = 0;
      uint32_t n = 0;
      EXPECT_TRUE(r.ReadU64(&hash).ok());
      EXPECT_TRUE(r.ReadU32(&n).ok());
      for (uint32_t i = 0; i < n; ++i) {
        Tuple t;
        int64_t wid = 0;
        EXPECT_TRUE(r.ReadTuple(&t).ok());
        EXPECT_TRUE(r.ReadI64(&wid).ok());
        EXPECT_TRUE(r.ReadBool(&flag).ok());  // matched
        EXPECT_TRUE(r.ReadBool(&flag).ok());  // gated
        if (s == side) rows.push_back(StoredForm(t));
      }
    }
    GuardSet guards;
    EXPECT_TRUE(r.ReadGuardSet(&guards).ok());
    uint32_t windows = 0;
    EXPECT_TRUE(r.ReadU32(&windows).ok());
    // (wid, count) per window, the lowest wid seen, the watermark.
    for (uint32_t i = 0; i < 2 * windows + 2; ++i) {
      int64_t word = 0;
      EXPECT_TRUE(r.ReadI64(&word).ok());
    }
  }
  return rows;
}

/// Feeds `left` and `right` to a fresh join in turns, one tuple each.
std::unique_ptr<SymmetricHashJoin> FeedKtv(const JoinOptions& jopt,
                                           const std::vector<Tuple>& left,
                                           const std::vector<Tuple>& right,
                                           RecordingCtx* ctx) {
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(jopt, KtvSchema(), KtvSchema(), ctx);
  for (size_t i = 0; i < std::max(left.size(), right.size()); ++i) {
    if (i < left.size()) {
      EXPECT_TRUE(join->ProcessTuple(0, left[i]).ok());
    }
    if (i < right.size()) {
      EXPECT_TRUE(join->ProcessTuple(1, right[i]).ok());
    }
  }
  return join;
}

/// For a join that holds exactly `left` and `right` (fed without
/// punctuation; its results in `ctx`): its snapshot holds those tuples
/// exactly, a twin restored from the snapshot re-snapshots to the same
/// bytes, and at EOS the join has emitted NestedLoopJoin's results and
/// the twin the same outer rows in the same order.
void CheckStoredAndFinish(SymmetricHashJoin* join, RecordingCtx* ctx,
                          const JoinOptions& jopt,
                          const std::vector<Tuple>& left,
                          const std::vector<Tuple>& right) {
  ASSERT_TRUE(join->FlushStaged().ok());
  const size_t at_snapshot = ctx->tuples.size();
  SnapshotWriter w;
  ASSERT_TRUE(join->SnapshotState(&w).ok());
  const std::string snap = w.buffer();
  for (int side = 0; side < 2; ++side) {
    std::vector<std::string> want;
    for (const Tuple& t : side == 0 ? left : right) {
      want.push_back(StoredForm(t));
    }
    EXPECT_EQ(Sorted(SnapshotRows(snap, side)), Sorted(want))
        << "input " << side;
  }
  RecordingCtx twin_ctx;
  std::unique_ptr<SymmetricHashJoin> twin =
      OpenJoin(jopt, KtvSchema(), KtvSchema(), &twin_ctx);
  SnapshotReader r(snap);
  ASSERT_TRUE(twin->RestoreState(&r).ok());
  SnapshotWriter again;
  ASSERT_TRUE(twin->SnapshotState(&again).ok());
  EXPECT_EQ(again.buffer(), snap);
  for (SymmetricHashJoin* j : {join, twin.get()}) {
    ASSERT_TRUE(j->ProcessEos(0).ok());
    ASSERT_TRUE(j->ProcessEos(1).ok());
  }
  const std::vector<std::string> out = ctx->Rendered();
  EXPECT_EQ(std::multiset<std::string>(out.begin(), out.end()),
            testing_util::NestedLoopJoin(left, right, jopt));
  EXPECT_EQ(ExactAll(twin_ctx, 0), ExactAll(*ctx, at_snapshot));
}

TEST(JoinNarrowSlots, OffsetsAtTheInt32Edge) {
  // Left rows whose value, id and arrival lie INT32_MAX and INT32_MIN
  // from the first row's stay in 4-byte slots. One past either edge
  // widens that column alone: 4 bytes more for each of the 4 rows.
  constexpr int64_t kBase = 5'000'000'000;
  constexpr int64_t kMax = std::numeric_limits<int32_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int32_t>::min();
  const std::vector<Tuple> right = {
      Ktv(Value::Int64(1), 150, Value::Int64(7), 100),
      Ktv(Value::Int64(2), 250, Value::Int64(8), 101),
      Ktv(Value::Int64(3), 350, Value::Int64(9), 102)};
  size_t narrow_bytes = 0;
  for (int past = 0; past < 2; ++past) {
    for (int column = 0; column < 3; ++column) {  // value, id, arrival
      SCOPED_TRACE("past " + std::to_string(past) + ", column " +
                   std::to_string(column));
      const auto at = [&](int64_t edge, int64_t step, int c) {
        return kBase + edge + (c == column ? past * step : 0);
      };
      std::vector<Tuple> left;
      left.push_back(Ktv(Value::Int64(1), 100, Value::Int64(kBase), kBase,
                         kBase));
      left.push_back(Ktv(Value::Int64(2), 200, Value::Int64(at(kMax, 1, 0)),
                         at(kMax, 1, 1), at(kMax, 1, 2)));
      left.push_back(Ktv(Value::Int64(1), 300, Value::Int64(at(kMin, -1, 0)),
                         at(kMin, -1, 1), at(kMin, -1, 2)));
      left.push_back(
          Ktv(Value::Int64(9), 400, Value::Int64(kBase), kBase - 1, kBase));
      const JoinOptions jopt = KtvJoin(/*left_outer=*/true);
      RecordingCtx ctx;
      std::unique_ptr<SymmetricHashJoin> join =
          FeedKtv(jopt, left, right, &ctx);
      if (past == 0 && column == 0) narrow_bytes = join->state_bytes();
      EXPECT_EQ(join->state_bytes(), narrow_bytes + 4 * past * left.size());
      CheckStoredAndFinish(join.get(), &ctx, jopt, left, right);
    }
  }
}

TEST(JoinNarrowSlots, Int64ExtremesInOneColumn) {
  // INT64_MIN then INT64_MAX in the key and in the value: the offset
  // between them overflows int64 itself, and both columns widen.
  constexpr int64_t kLo = std::numeric_limits<int64_t>::min();
  constexpr int64_t kHi = std::numeric_limits<int64_t>::max();
  const std::vector<Tuple> left = {
      Ktv(Value::Int64(kLo), 10, Value::Int64(kLo), 1),
      Ktv(Value::Int64(kHi), 20, Value::Int64(kHi), 2),
      Ktv(Value::Int64(0), 30, Value::Int64(-1), 3),
      Ktv(Value::Int64(5), 40, Value::Int64(kHi), 4)};
  const std::vector<Tuple> right = {
      Ktv(Value::Int64(kHi), 50, Value::Int64(kLo), 11),
      Ktv(Value::Int64(kLo), 60, Value::Int64(kHi), 12),
      Ktv(Value::Int64(0), 70, Value::Int64(0), 13)};
  for (bool outer : {false, true}) {
    const JoinOptions jopt = KtvJoin(outer);
    RecordingCtx ctx;
    std::unique_ptr<SymmetricHashJoin> join =
        FeedKtv(jopt, left, right, &ctx);
    CheckStoredAndFinish(join.get(), &ctx, jopt, left, right);
  }
}

TEST(JoinNarrowSlots, IdsAndArrivalsSpanningMoreThanInt32) {
  // Ids and arrivals 2^31 and more apart on both inputs; the joined and
  // outer rows carry the left ids, and the snapshot every arrival.
  constexpr int64_t kFar = int64_t{1} << 31;
  const std::vector<Tuple> left = {
      Ktv(Value::Int64(1), 10, Value::Int64(1), 0, 0),
      Ktv(Value::Int64(2), 20, Value::Int64(2), kFar, -kFar),
      Ktv(Value::Int64(1), 30, Value::Int64(3), -kFar - 1, kFar * 4),
      Ktv(Value::Int64(4), 40, Value::Int64(4),
          std::numeric_limits<int64_t>::max(),
          std::numeric_limits<int64_t>::min())};
  const std::vector<Tuple> right = {
      Ktv(Value::Int64(1), 50, Value::Int64(5), kFar * 8, 1),
      Ktv(Value::Int64(2), 60, Value::Int64(6), -kFar * 8,
          std::numeric_limits<int64_t>::max())};
  const JoinOptions jopt = KtvJoin(/*left_outer=*/true);
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = FeedKtv(jopt, left, right, &ctx);
  CheckStoredAndFinish(join.get(), &ctx, jopt, left, right);
  std::vector<int64_t> ids;
  for (const Tuple& t : ctx.tuples) ids.push_back(t.id());
  EXPECT_EQ(std::multiset<int64_t>(ids.begin(), ids.end()),
            (std::multiset<int64_t>{0, kFar, -kFar - 1,
                                    std::numeric_limits<int64_t>::max()}));
}

TEST(JoinNarrowSlots, NullDoubleAndTimestampInAnInt64Column) {
  // Values of other types in int64 columns widen them, and their rows
  // keep their own tags: a double key joins an int64 key it equals, a
  // NULL value and a timestamp value decode with their types.
  const std::vector<Tuple> left = {
      Ktv(Value::Int64(1), 10, Value::Int64(5), 1),
      Ktv(Value::Double(1.0), 20, Value::Null(), 2),
      Ktv(Value::Null(), 30, Value::Double(2.5), 3),
      Ktv(Value::Int64(2), 40, Value::Timestamp(7), 4),
      Ktv(Value::Int64(2), 50, Value::Int64(6), 5)};
  const std::vector<Tuple> right = {
      Ktv(Value::Int64(1), 60, Value::Null(), 11),
      Ktv(Value::Double(2.0), 70, Value::Int64(9), 12),
      Ktv(Value::Int64(3), 80, Value::Double(-0.0), 13)};
  for (bool outer : {false, true}) {
    const JoinOptions jopt = KtvJoin(outer);
    RecordingCtx ctx;
    std::unique_ptr<SymmetricHashJoin> join =
        FeedKtv(jopt, left, right, &ctx);
    CheckStoredAndFinish(join.get(), &ctx, jopt, left, right);
  }
}

TEST(JoinNarrowSlots, WideningAfterAPurgeCompacted) {
  // Feedback purges 7 of 10 left rows, so the table compacts, keeping
  // its narrow layout; then a row 2^40 away widens it. The survivors
  // keep their values, ids, arrivals and order.
  const JoinOptions jopt = KtvJoin(/*left_outer=*/true);
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(jopt, KtvSchema(), KtvSchema(), &ctx);
  std::vector<Tuple> kept;
  for (int i = 0; i < 10; ++i) {
    const Tuple t = Ktv(Value::Int64(i % 3), 10 * i, Value::Int64(i), i, i);
    ASSERT_TRUE(join->ProcessTuple(0, t).ok());
    if (i < 3) kept.push_back(t);
  }
  const size_t full = join->state_bytes();
  ASSERT_TRUE(join->ProcessControl(
                      0, ControlMessage::Feedback(FB("~[*,*,>=3,*,*]")))
                  .ok());
  ASSERT_EQ(join->table_size(0), 3u);
  const size_t compacted = join->state_bytes();
  EXPECT_LT(compacted, full);
  constexpr int64_t kFar = int64_t{1} << 40;
  kept.push_back(Ktv(Value::Int64(1), 500, Value::Int64(-kFar), kFar, -kFar));
  ASSERT_TRUE(join->ProcessTuple(0, kept.back()).ok());
  EXPECT_GT(join->state_bytes(), compacted);
  const std::vector<Tuple> right = {
      Ktv(Value::Int64(1), 600, Value::Int64(-7), 21),
      Ktv(Value::Int64(2), 700, Value::Int64(kFar), 22)};
  for (const Tuple& t : right) ASSERT_TRUE(join->ProcessTuple(1, t).ok());
  CheckStoredAndFinish(join.get(), &ctx, jopt, kept, right);
}

TEST(JoinNarrowSlots, OuterRowsInIdOrderAcrossAWidenedTable) {
  // Unmatched left rows arrive in falling id order, and the fourth
  // widens the table mid-window: outer rows still come out by id.
  std::vector<Tuple> left;
  for (int i = 0; i < 8; ++i) {
    const int64_t id = i == 3 ? -(int64_t{1} << 40) : 100 - i;
    left.push_back(Ktv(Value::Int64(10 + i), 10 * i, Value::Int64(i), id));
  }
  const std::vector<Tuple> right = {
      Ktv(Value::Int64(99), 5, Value::Int64(0), 200)};
  const JoinOptions jopt = KtvJoin(/*left_outer=*/true);
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = FeedKtv(jopt, left, right, &ctx);
  CheckStoredAndFinish(join.get(), &ctx, jopt, left, right);
  std::vector<int64_t> ids;
  for (const Tuple& t : ctx.tuples) ids.push_back(t.id());
  ASSERT_EQ(ids.size(), left.size());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// ---- The punctuation contract ----

/// RecordingCtx that also records each output punctuation, with how
/// many tuples preceded it.
class PunctRecordingCtx : public RecordingCtx {
 public:
  void EmitPunct(int, Punctuation p) override {
    puncts.emplace_back(tuples.size(), std::move(p));
  }
  /// Each tuple that follows an output punctuation covering it.
  std::vector<std::string> Violations() const {
    std::vector<std::string> out;
    for (const auto& [at, p] : puncts) {
      for (size_t i = at; i < tuples.size(); ++i) {
        if (p.pattern().Matches(tuples[i])) {
          out.push_back(tuples[i].ToString() + " after " + p.ToString());
        }
      }
    }
    return out;
  }
  std::vector<std::pair<size_t, Punctuation>> puncts;
};

Punctuation ThroughTs(int arity, int ts_attr, int64_t ts) {
  return Punctuation(PunctPattern::AllWildcard(arity).With(
      ts_attr, AttrPattern::Le(Value::Timestamp(ts))));
}

TEST(JoinTest, LateLeftTupleEmitsItsOuterRowBeforeTheCoveringPunctuation) {
  // The right input closes window 0 before an unmatched left tuple of
  // window 0 arrives. Nothing can probe that tuple, so it is not
  // stored, and its outer row precedes the output punctuation that the
  // left input's close of window 0 brings.
  JoinOptions j = WindowedJoin();
  j.left_outer = true;
  PunctRecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(j, ASchema(), BSchema(), &ctx);
  ASSERT_TRUE(join->ProcessPunctuation(1, ThroughTs(3, 0, 999)).ok());
  ASSERT_TRUE(
      join->ProcessTuple(0, TupleBuilder().I64(1).I64(200).I64(9).Build())
          .ok());
  EXPECT_EQ(join->table_size(0), 0u);
  ASSERT_TRUE(join->ProcessPunctuation(0, ThroughTs(3, 1, 999)).ok());
  ASSERT_TRUE(join->ProcessPunctuation(1, ThroughTs(3, 0, 1'999)).ok());
  ASSERT_TRUE(join->FlushStaged().ok());
  ASSERT_EQ(ctx.tuples.size(), 1u);
  EXPECT_EQ(ctx.tuples[0].ToString(),
            (TupleBuilder()
                 .I64(1)
                 .I64(200)
                 .I64(9)
                 .V(Value::Null())
                 .V(Value::Null())
                 .Build()
                 .ToString()));
  ASSERT_EQ(ctx.puncts.size(), 1u);
  EXPECT_EQ(ctx.puncts[0].first, 1u);  // after the outer row
  EXPECT_TRUE(ctx.Violations().empty());
}

TEST(JoinRandomized, MatchesNestedLoopsAndKeepsThePunctuationContract) {
  // Two inputs over 6 windows, each tuple ahead of its own input's
  // punctuation for its window, interleaved with a random skew so one
  // input often closes a window before the other has sent it. Inner
  // and left-outer joins, some with every key hash colliding; a few
  // values lie 2^35 apart, so some tables widen. The results are
  // NestedLoopJoin's, and no result follows an output punctuation that
  // covers it.
  constexpr int kWindows = 6;
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    const auto pick = [&rng](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    JoinOptions jopt = KtvJoin(/*left_outer=*/seed % 2 == 0);
    if (seed % 3 == 0) {
      jopt.key_hash_override = [](const Tuple&, int, int64_t) {
        return uint64_t{7};
      };
    }
    // Each input's elements: a tuple, or punctuation through a window.
    struct Elem {
      Tuple t;
      int64_t through = -1;
    };
    std::vector<Elem> feed[2];
    std::vector<Tuple> fed[2];
    for (int side = 0; side < 2; ++side) {
      int64_t id = side * 1'000;
      for (int w = 0; w < kWindows; ++w) {
        for (int n = pick(0, 6); n > 0; --n) {
          const int64_t k = pick(0, 3);
          const int64_t ts = w * 1'000 + pick(0, 999);
          const int64_t v = pick(0, 9) == 0 ? int64_t{pick(-3, 3)} << 35
                                            : pick(0, 99);
          const int64_t arrival = pick(0, 1) == 0 ? 0 : id << 32;
          Tuple t = Ktv(Value::Int64(k), ts, Value::Int64(v), id++, arrival);
          fed[side].push_back(t);
          feed[side].push_back(Elem{std::move(t)});
        }
        if (pick(0, 2) != 0) feed[side].push_back(Elem{Tuple(), w});
      }
    }
    if (fed[1].empty()) {
      fed[1].push_back(Ktv(Value::Int64(0), 0, Value::Int64(0), 1'000));
      feed[1].insert(feed[1].begin(), Elem{fed[1].back()});
    }

    PunctRecordingCtx ctx;
    std::unique_ptr<SymmetricHashJoin> join =
        OpenJoin(jopt, KtvSchema(), KtvSchema(), &ctx);
    const int skew = pick(1, 9);  // of 10: how often input 0 goes next
    size_t next[2] = {0, 0};
    while (next[0] < feed[0].size() || next[1] < feed[1].size()) {
      int side = pick(0, 9) < skew ? 0 : 1;
      if (next[side] == feed[side].size()) side = 1 - side;
      Page page;
      for (int n = pick(1, 4); n > 0 && next[side] < feed[side].size();
           --n) {
        const Elem& e = feed[side][next[side]++];
        if (e.through < 0) {
          page.AddTuple(e.t);
        } else {
          page.Add(StreamElement::OfPunct(
              ThroughTs(3, 1, (e.through + 1) * 1'000 - 1)));
        }
      }
      ASSERT_TRUE(join->ProcessPage(side, std::move(page), nullptr).ok());
      if (pick(0, 3) == 0) {
        ASSERT_TRUE(join->FlushStaged().ok());
      }
    }
    ASSERT_TRUE(join->ProcessEos(0).ok());
    ASSERT_TRUE(join->ProcessEos(1).ok());

    const std::vector<std::string> out = ctx.Rendered();
    EXPECT_EQ(std::multiset<std::string>(out.begin(), out.end()),
              testing_util::NestedLoopJoin(fed[0], fed[1], jopt));
    const std::vector<std::string> late = ctx.Violations();
    EXPECT_TRUE(late.empty())
        << late.size() << " late, first " << (late.empty() ? "" : late[0]);
  }
}

}  // namespace
}  // namespace nstream
