// Pace::ProcessPage equivalence: the paged path (in-place filtering +
// whole-page forwarding) must match the element walk exactly — same
// passed tuples in the same order, same per-input accounting, same
// watermark, same feedback rounds — under randomized multi-input
// streams, mixed pages (punctuation bounding the tuple run), every
// PaceMode, and arena-backed input pages (whose surviving tuples ride
// the page through, and whose detached remainders must be promoted).

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ops/pace.h"
#include "testing/test_util.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::P;

SchemaPtr TsV() {
  return Schema::Make(
      {{"ts", ValueType::kTimestamp}, {"v", ValueType::kInt64}});
}

// Records every downstream emission in order.
class CollectCtx : public ExecContext {
 public:
  void EmitTuple(int, Tuple t) override { rows.push_back(t.ToString()); }
  void EmitPage(int, Page&& page) override {
    for (StreamElement& e : page.mutable_elements()) {
      rows.push_back(e.tuple().ToString());
    }
  }
  void EmitPunct(int, Punctuation p) override {
    rows.push_back("punct" + p.ToString());
  }
  void EmitEos(int) override {}
  void EmitFeedback(int in_port, FeedbackPunctuation fb) override {
    feedback.push_back(std::to_string(in_port) + ":" +
                       fb.pattern().ToString());
  }
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}

  std::vector<std::string> rows;
  std::vector<std::string> feedback;
};

// Delivers one page down the paged path (Pace::ProcessPage) or the
// element walk (Pace::ProcessTuple / ProcessPunctuation / ProcessEos).
Status Deliver(Pace* pace, int port, Page&& page, bool paged) {
  TimeMs tick = 0;
  if (paged) return pace->ProcessPage(port, std::move(page), &tick);
  return WalkPageElements(pace, pace->mutable_stats(), port,
                          std::move(page), &tick);
}

struct PaceOutcome {
  std::vector<std::string> rows;
  std::vector<std::string> feedback;
  std::vector<PaceInputStats> per_input;
  TimeMs hwm = 0;
  uint64_t feedback_rounds = 0;
  uint64_t tuples_in = 0;
  uint64_t guard_drops = 0;
};

void ExpectSameStats(const std::vector<PaceInputStats>& a,
                     const std::vector<PaceInputStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuples, b[i].tuples) << "input " << i;
    EXPECT_EQ(a[i].timely, b[i].timely) << "input " << i;
    EXPECT_EQ(a[i].late, b[i].late) << "input " << i;
    EXPECT_EQ(a[i].dropped, b[i].dropped) << "input " << i;
  }
}

// One scripted delivery: (port, page) pairs driven down the paged path
// or the element walk.
struct Delivery {
  int port;
  // Tuple (ts, v) payloads followed by an optional trailing/mid-page
  // watermark punctuation bound (<= bound on ts); -1 = none.
  std::vector<std::pair<TimeMs, int64_t>> tuples;
  TimeMs punct_bound = -1;
  // Position of the punctuation within the page (index among
  // elements); -1 = append after all tuples.
  int punct_at = -1;
};

PaceOutcome Drive(const std::vector<Delivery>& script, PaceOptions popt,
                  int num_inputs, bool paged) {
  Pace pace("pace", num_inputs, popt);
  for (int i = 0; i < num_inputs; ++i) {
    EXPECT_TRUE(pace.SetInputSchema(i, TsV()).ok());
  }
  EXPECT_TRUE(pace.InferSchemas().ok());
  CollectCtx ctx;
  EXPECT_TRUE(pace.Open(&ctx).ok());
  for (const Delivery& d : script) {
    Page page;
    TupleArena* arena = page.arena();
    size_t pos = 0;
    auto maybe_punct = [&](size_t at) {
      if (d.punct_bound >= 0 &&
          static_cast<int>(at) ==
              (d.punct_at < 0 ? static_cast<int>(d.tuples.size())
                              : d.punct_at)) {
        PunctPattern p = PunctPattern::AllWildcard(2);
        p = p.With(0, AttrPattern::Le(Value::Timestamp(d.punct_bound)));
        page.Add(StreamElement::OfPunct(Punctuation(std::move(p))));
      }
    };
    for (const auto& [ts, v] : d.tuples) {
      maybe_punct(pos++);
      Tuple t(arena, 2);
      t.Append(Value::Timestamp(ts));
      t.Append(Value::Int64(v));
      page.Add(StreamElement::OfTuple(std::move(t)));
    }
    maybe_punct(pos);
    EXPECT_TRUE(Deliver(&pace, d.port, std::move(page), paged).ok());
  }
  PaceOutcome out;
  out.rows = ctx.rows;
  out.feedback = ctx.feedback;
  for (int i = 0; i < num_inputs; ++i) {
    out.per_input.push_back(pace.input_stats(i));
  }
  out.hwm = pace.high_watermark();
  out.feedback_rounds = pace.feedback_rounds();
  out.tuples_in = pace.stats().tuples_in;
  out.guard_drops = pace.stats().input_guard_drops;
  return out;
}

void ExpectPagedMatchesElement(const std::vector<Delivery>& script,
                               PaceOptions popt, int num_inputs) {
  PaceOutcome element = Drive(script, popt, num_inputs, /*paged=*/false);
  PaceOutcome paged = Drive(script, popt, num_inputs, /*paged=*/true);
  EXPECT_EQ(paged.rows, element.rows);
  EXPECT_EQ(paged.feedback, element.feedback);
  ExpectSameStats(paged.per_input, element.per_input);
  EXPECT_EQ(paged.hwm, element.hwm);
  EXPECT_EQ(paged.feedback_rounds, element.feedback_rounds);
  EXPECT_EQ(paged.tuples_in, element.tuples_in);
  EXPECT_EQ(paged.guard_drops, element.guard_drops);
  EXPECT_GT(paged.rows.size(), 0u);
}

std::vector<Delivery> RandomScript(std::mt19937* rng, int num_inputs,
                                   int pages) {
  std::vector<Delivery> script;
  TimeMs base = 0;
  int64_t seq = 0;
  for (int p = 0; p < pages; ++p) {
    Delivery d;
    d.port = static_cast<int>((*rng)() % num_inputs);
    int n = 1 + static_cast<int>((*rng)() % 24);
    for (int i = 0; i < n; ++i) {
      // A mix of advancing, on-time, and deeply-late timestamps.
      TimeMs ts = base + static_cast<TimeMs>((*rng)() % 200) - 80;
      if (ts < 0) ts = 0;
      d.tuples.push_back({ts, seq++});
      base += static_cast<TimeMs>((*rng)() % 8);
    }
    if ((*rng)() % 3 == 0) {
      d.punct_bound = base / 2;
      d.punct_at = ((*rng)() % 2 == 0)
                       ? -1
                       : static_cast<int>((*rng)() % (n + 1));
    }
    script.push_back(std::move(d));
  }
  return script;
}

TEST(PacePageTest, RandomizedPagedVsElementAllModes) {
  std::mt19937 rng(17);
  for (PaceMode mode : {PaceMode::kUnionOnly, PaceMode::kDrop,
                        PaceMode::kDropAndFeedback}) {
    for (int trial = 0; trial < 4; ++trial) {
      PaceOptions popt;
      popt.ts_attr = 0;
      popt.tolerance_ms = 50;
      popt.mode = mode;
      ExpectPagedMatchesElement(RandomScript(&rng, 2, 12), popt, 2);
    }
  }
}

TEST(PacePageTest, MixedPageRemainderIsPromotedAndOrdered) {
  // Punctuation mid-page: the admitted tuple prefix is forwarded as a
  // page, the remainder (punct + trailing tuples) walks element-wise
  // — order must be exactly the element walk's, and the detached
  // tuples must have been promoted (the outcome comparison
  // would dangle/diverge otherwise, and ASan would flag it).
  PaceOptions popt;
  popt.ts_attr = 0;
  popt.tolerance_ms = 10;
  popt.mode = PaceMode::kDrop;
  std::vector<Delivery> script;
  Delivery d;
  d.port = 0;
  d.tuples = {{0, 0}, {100, 1}, {5, 2}, {120, 3}, {115, 4}};
  d.punct_bound = 100;
  d.punct_at = 2;  // punctuation lands between tuples 1 and 2
  script.push_back(d);
  ExpectPagedMatchesElement(script, popt, 1);
}

TEST(PacePageTest, GuardedTuplesDropInBothWalks) {
  PaceOptions popt;
  popt.ts_attr = 0;
  popt.tolerance_ms = 1000;  // nothing late: isolate the guard path
  popt.mode = PaceMode::kDrop;
  auto drive_with_guard = [&](bool paged) {
    Pace pace("pace", 1, popt);
    EXPECT_TRUE(pace.SetInputSchema(0, TsV()).ok());
    EXPECT_TRUE(pace.InferSchemas().ok());
    CollectCtx ctx;
    EXPECT_TRUE(pace.Open(&ctx).ok());
    // Assumed feedback from downstream: v == 7 is no longer needed.
    EXPECT_TRUE(
        pace.ProcessFeedback(0, testing_util::FB("~[*,7]")).ok());
    Page page;
    TupleArena* arena = page.arena();
    for (int64_t v = 0; v < 16; ++v) {
      Tuple t(arena, 2);
      t.Append(Value::Timestamp(v));
      t.Append(Value::Int64(v % 8));
      page.Add(StreamElement::OfTuple(std::move(t)));
    }
    EXPECT_TRUE(Deliver(&pace, 0, std::move(page), paged).ok());
    return std::make_pair(ctx.rows, pace.stats().input_guard_drops);
  };
  auto [paged_rows, paged_drops] = drive_with_guard(true);
  auto [elem_rows, elem_drops] = drive_with_guard(false);
  EXPECT_EQ(paged_rows, elem_rows);
  EXPECT_EQ(paged_drops, elem_drops);
  EXPECT_EQ(paged_drops, 2u);  // v%8 == 7 appears twice in 0..15
  EXPECT_EQ(paged_rows.size(), 14u);
}

TEST(PacePageTest, ExecutorLevelEquivalenceSyncVsVirtualTime) {
  // End-to-end: the SyncExecutor (unpaced, arena pages through the
  // spsc chain) and the same drive in virtual time (paced arrivals,
  // one page per arrival) agree on what a PACE'd stream delivers.
  auto run = [](bool virtual_time) {
    std::vector<Tuple> tuples;
    std::mt19937 rng(23);
    TimeMs base = 0;
    for (int i = 0; i < 300; ++i) {
      TimeMs ts = base + static_cast<TimeMs>(rng() % 120) - 50;
      if (ts < 0) ts = 0;
      tuples.push_back(TupleBuilder().Ts(ts).I64(i).Build());
      base += static_cast<TimeMs>(rng() % 4);
    }
    testing_util::LinearPlan lp(TsV(), AtMillis(std::move(tuples)));
    PaceOptions popt;
    popt.ts_attr = 0;
    popt.tolerance_ms = 40;
    popt.mode = PaceMode::kDrop;
    auto* pace = lp.Add(std::make_unique<Pace>("pace", 1, popt));
    CollectorSink* sink = lp.Finish();
    Status st = virtual_time ? lp.RunVirtual() : lp.RunSync();
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::vector<std::string> rows;
    for (const CollectedTuple& c : sink->collected()) {
      rows.push_back(c.tuple.ToString());
    }
    return std::make_pair(rows, pace->input_stats(0).dropped);
  };
  auto [sync_rows, sync_dropped] = run(false);
  auto [virtual_rows, virtual_dropped] = run(true);
  EXPECT_EQ(sync_rows, virtual_rows);
  EXPECT_EQ(sync_dropped, virtual_dropped);
  EXPECT_GT(sync_dropped, 0u);
  EXPECT_GT(sync_rows.size(), 0u);
}

}  // namespace
}  // namespace nstream
