#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/correctness.h"
#include "ops/symmetric_hash_join.h"
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
  SyncExecutorOptions opts;
  opts.source_batch = 1;
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
  // missing must match the feedback pattern.
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
    JoinHarness h(make_side(true), make_side(false), BasicJoin(),
                  driver);
    SyncExecutorOptions opts;
    opts.source_batch = 1;
    opts.queue.page_size = 1;
    SyncExecutor exec(opts);
    EXPECT_TRUE(exec.Run(&h.plan).ok());
    return testing_util::TuplesOf(h.sink->collected());
  };
  std::vector<Tuple> baseline = run(false);
  std::vector<Tuple> exploited = run(true);
  ExploitationCheck check =
      CheckCorrectExploitation(baseline, exploited, P("[*,2,1,*]"));
  EXPECT_TRUE(check.correct) << check.ToString();
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
  // a pooled task moves between workers. The first window's chunks
  // come from the process pool or the heap; every later window reuses
  // the chunks its input's previous close released, and no input keeps
  // more spare chunks than that close released.
  constexpr int kWindows = 20;
  constexpr int kRows = 600;  // 88-byte rows: several chunks per side
  RecordingCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join =
      OpenJoin(WindowedJoin(), ASchema(), BSchema(), &ctx);
  uint64_t first_misses[2] = {0, 0};
  size_t released[2] = {0, 0};
  for (int w = 0; w < kWindows; ++w) {
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
    for (int side = 0; side < 2; ++side) {
      SCOPED_TRACE("window " + std::to_string(w) + " input " +
                   std::to_string(side));
      const ChunkList& chunks = join->table_chunks(side);
      if (w == 0) {
        // The list started empty, so it holds what the close released.
        first_misses[side] = chunks.misses();
        released[side] = chunks.size();
        EXPECT_GT(released[side], 1u);
        EXPECT_EQ(first_misses[side], released[side]);
        continue;
      }
      EXPECT_EQ(chunks.misses(), first_misses[side])
          << "a table chunk came from the process pool or the heap";
      // Equal windows: every close released the first one's count.
      EXPECT_LE(chunks.size(), released[side]);
    }
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

}  // namespace
}  // namespace nstream
