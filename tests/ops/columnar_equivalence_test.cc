// Columnar staging against references derived from the input:
// randomized streams with punctuation at arbitrary mid-page positions
// drive Select / Pace / Project chains (checked against the chain's
// rules applied to the input in order), the symmetric hash join
// (columnar emit + columnar adjacency probe, including a
// forced-collision storm through key_hash_override; checked against a
// nested-loop join of the feeds), and WindowAggregate (checked against
// its element walk) — under the sync and threaded executors.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/pace.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "ops/window_aggregate.h"
#include "testing/join_oracle.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::P;

using Rows = std::multiset<std::string>;

Rows Collect(const CollectorSink* sink) {
  Rows out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Select / Pace / Project chain with punctuation at random positions.
// ---------------------------------------------------------------------------

SchemaPtr ChainSchema() {
  return Schema::Make({{"ts", ValueType::kTimestamp},
                       {"k", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"v", ValueType::kDouble}});
}

std::vector<TimedElement> RandomChainStream(std::mt19937* rng, int n) {
  std::vector<TimedElement> out;
  TimeMs at = 0;
  int64_t hwm = 0;
  for (int i = 0; i < n; ++i) {
    // Mostly-ordered timestamps with bounded disorder, so Pace both
    // passes and drops.
    int64_t ts = hwm + static_cast<int64_t>((*rng)() % 7) - 3;
    if (ts < 0) ts = 0;
    hwm = std::max(hwm, ts);
    std::string s = "s-" + std::to_string((*rng)() % 40);
    if ((*rng)() % 4 == 0) s += "-stretched-well-past-the-inline-cap";
    out.push_back(TimedElement::OfTuple(
        at++, TupleBuilder()
                  .Ts(ts)
                  .I64(static_cast<int64_t>((*rng)() % 10))
                  .S(std::move(s))
                  .D(static_cast<double>((*rng)() % 100) / 4.0)
                  .Build()));
    // Punctuation at arbitrary mid-page positions: forces page
    // flushes at uneven fills and exercises the flush-before-punct
    // ordering on columnar staging paths.
    if ((*rng)() % 11 == 0) {
      out.push_back(TimedElement::OfPunct(
          at++, Punctuation(P("[<=t:" + std::to_string(hwm) + ",*,*,*]"))));
    }
  }
  return out;
}

// The chain's rules applied to the input tuples in order: permute to
// (v, ts, s, k), keep k % 3 != 0, drop what lags the running maximum
// ts by more than 2 (Pace in kDrop mode; punctuation does not move it),
// then remap to (ts, s, v, v).
Rows ChainOracle(const std::vector<TimedElement>& elems) {
  Rows out;
  int64_t hwm = INT64_MIN;
  for (const TimedElement& e : elems) {
    if (!e.element.is_tuple()) continue;
    const Tuple& t = e.element.tuple();
    if (t.value(1).int64_value() % 3 == 0) continue;
    const int64_t ts = t.value(0).int64_value();
    hwm = std::max(hwm, ts);
    if (hwm - ts > 2) continue;
    out.insert(Tuple({t.value(0), t.value(2), t.value(3), t.value(3)})
                   .ToString());
  }
  return out;
}

Rows RunChain(const std::vector<TimedElement>& elems, bool threaded) {
  testing_util::LinearPlan plan(ChainSchema(), elems);
  // Permuting projection: its paged path stages a fresh columnar
  // output page per input page.
  plan.Add(std::make_unique<Project>("perm", std::vector<int>{3, 0, 2, 1}));
  // Select rides FilterPageInPlace: selection vector vs compaction.
  plan.Add(std::make_unique<Select>("sel", [](const Tuple& t) {
    return t.value(3).int64_value() % 3 != 0;
  }));
  PaceOptions popt;
  popt.ts_attr = 1;
  popt.tolerance_ms = 2;
  popt.mode = PaceMode::kDrop;
  plan.Add(std::make_unique<Pace>("pace", 1, popt));
  // Remap projection: on columnar input this is the in-place
  // column-repoint fast path (duplicates included).
  plan.Add(std::make_unique<Project>("remap", std::vector<int>{1, 2, 0, 0}));
  CollectorSink* sink = plan.Finish();
  Status st;
  if (threaded) {
    st = plan.RunThreaded();
  } else {
    SchedulerOptions opts;
    opts.queue.page_size = 16;
    st = plan.RunSync(opts);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collect(sink);
}

TEST(ColumnarEquivalenceTest, SelectPaceProjectChain) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 5; ++round) {
    std::vector<TimedElement> elems = RandomChainStream(&rng, 300);
    Rows expect = ChainOracle(elems);
    EXPECT_GT(expect.size(), 0u);
    EXPECT_EQ(RunChain(elems, /*threaded=*/false), expect)
        << "round " << round;
  }
}

TEST(ColumnarEquivalenceTest, SelectPaceProjectChainThreaded) {
  std::mt19937 rng(424242);
  std::vector<TimedElement> elems = RandomChainStream(&rng, 400);
  Rows expect = ChainOracle(elems);
  EXPECT_EQ(RunChain(elems, /*threaded=*/false), expect);
  EXPECT_EQ(RunChain(elems, /*threaded=*/true), expect);
}

// ---------------------------------------------------------------------------
// Symmetric hash join: columnar emit + columnar adjacency probe, with
// string payloads (table promotion out of columnar pages) and forced
// hash collisions.
// ---------------------------------------------------------------------------

SchemaPtr JoinSide() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"p", ValueType::kString}});
}

std::vector<Tuple> RandomJoinSide(std::mt19937* rng, int n,
                                  const char* tag) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string payload = std::string(tag) + "-" + std::to_string(i);
    if (i % 3 == 0) payload += "-past-the-fifteen-byte-inline-cap";
    out.push_back(TupleBuilder()
                      .I64(static_cast<int64_t>((*rng)() % 11))
                      .Ts(static_cast<int64_t>((*rng)() % 60))
                      .S(std::move(payload))
                      .Build());
  }
  return out;
}

JoinOptions RandomJoinOptions(bool left_outer) {
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window_join = true;
  jopt.window = WindowSpec{10, 10};
  jopt.left_outer = left_outer;
  jopt.output_page_size = 8;  // several staged-page generations
  return jopt;
}

Rows RunJoin(const std::vector<Tuple>& left,
             const std::vector<Tuple>& right, bool left_outer,
             bool collide, bool threaded) {
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", JoinSide(), AtMillis(left)));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", JoinSide(), AtMillis(right)));
  // Identity projections so the join's input pages are operator-built
  // columnar pages rather than source row pages.
  auto* pl = plan.AddOp(
      std::make_unique<Project>("pl", std::vector<int>{0, 1, 2}));
  auto* pr = plan.AddOp(
      std::make_unique<Project>("pr", std::vector<int>{0, 1, 2}));
  JoinOptions jopt = RandomJoinOptions(left_outer);
  if (collide) {
    // Collision storm: the probe must re-establish key equality.
    jopt.key_hash_override = [](const Tuple&, int, int64_t) {
      return uint64_t{42};
    };
  }
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*l, 0, *pl, 0).ok());
  EXPECT_TRUE(plan.Connect(*r, 0, *pr, 0).ok());
  EXPECT_TRUE(plan.Connect(*pl, 0, *join, 0).ok());
  EXPECT_TRUE(plan.Connect(*pr, 0, *join, 1).ok());
  EXPECT_TRUE(plan.Connect(*join, *sink).ok());
  Status st;
  if (threaded) {
    ThreadedExecutor exec;
    st = exec.Run(&plan);
  } else {
    SchedulerOptions opts;
    opts.queue.page_size = 16;
    SyncExecutor exec(opts);
    st = exec.Run(&plan);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collect(sink);
}

TEST(ColumnarEquivalenceTest, JoinMatchesNestedLoop) {
  std::mt19937 rng(777);
  for (bool left_outer : {false, true}) {
    std::vector<Tuple> left = RandomJoinSide(&rng, 150, "left");
    std::vector<Tuple> right = RandomJoinSide(&rng, 150, "right");
    Rows rows = RunJoin(left, right, left_outer, /*collide=*/false,
                        /*threaded=*/false);
    EXPECT_EQ(rows, testing_util::NestedLoopJoin(
                        left, right, RandomJoinOptions(left_outer)))
        << (left_outer ? "join-outer" : "join-inner");
    EXPECT_GT(rows.size(), 0u);
    // String payloads must survive the copy out of columnar pages
    // into the join's window tables intact.
    for (const std::string& row : rows) {
      if (row.find("null") != std::string::npos) continue;
      EXPECT_NE(row.find("'left-"), std::string::npos) << row;
      EXPECT_NE(row.find("'right-"), std::string::npos) << row;
    }
  }
}

TEST(ColumnarEquivalenceTest, JoinForcedHashCollisions) {
  // Every (wid, key) hashes to the same bucket: the columnar probe
  // path must re-check key equality per entry.
  std::mt19937 rng(31337);
  std::vector<Tuple> left = RandomJoinSide(&rng, 120, "left");
  std::vector<Tuple> right = RandomJoinSide(&rng, 120, "right");
  const Rows expect = testing_util::NestedLoopJoin(
      left, right, RandomJoinOptions(/*left_outer=*/false));
  EXPECT_GT(expect.size(), 0u);
  EXPECT_EQ(RunJoin(left, right, false, /*collide=*/true,
                    /*threaded=*/false),
            expect);
}

TEST(ColumnarEquivalenceTest, JoinThreadedExecutor) {
  std::mt19937 rng(5150);
  std::vector<Tuple> left = RandomJoinSide(&rng, 120, "left");
  std::vector<Tuple> right = RandomJoinSide(&rng, 120, "right");
  EXPECT_EQ(RunJoin(left, right, true, false, /*threaded=*/true),
            testing_util::NestedLoopJoin(
                left, right, RandomJoinOptions(/*left_outer=*/true)));
}

// ---------------------------------------------------------------------------
// WindowAggregate: columnar result staging (EmitResult) and columnar
// input pages from an upstream Project, batched input against the
// element walk.
// ---------------------------------------------------------------------------

SchemaPtr AggSchema() {
  return Schema::Make({{"ts", ValueType::kTimestamp},
                       {"g", ValueType::kInt64},
                       {"v", ValueType::kDouble}});
}

std::vector<TimedElement> RandomAggStream(std::mt19937* rng, int n) {
  std::vector<TimedElement> out;
  TimeMs at = 0;
  for (int i = 0; i < n; ++i) {
    out.push_back(TimedElement::OfTuple(
        at++, TupleBuilder()
                  .Ts(static_cast<int64_t>((*rng)() % 500))
                  .I64(static_cast<int64_t>((*rng)() % 5))
                  .D(static_cast<double>((*rng)() % 1000) / 10.0)
                  .Build()));
    if (i > 0 && i % 29 == 0) {
      out.push_back(TimedElement::OfPunct(
          at++, Punctuation(P("[<=t:" +
                              std::to_string((*rng)() % 500) +
                              ",*,*]"))));
    }
  }
  return out;
}

Rows RunAgg(const std::vector<TimedElement>& elems, AggKind kind,
            bool batched) {
  testing_util::LinearPlan plan(AggSchema(), elems);
  // Upstream identity Project so the aggregate's input pages are
  // columnar (its batched walk materializes them).
  plan.Add(std::make_unique<Project>("id", std::vector<int>{0, 1, 2}));
  WindowAggregateOptions wopt;
  wopt.ts_attr = 0;
  wopt.group_attrs = {1};
  wopt.agg_attr = 2;
  wopt.kind = kind;
  wopt.window = WindowSpec{100, 100};
  wopt.output_page_size = 4;  // several staged output pages
  wopt.page_batched_input = batched;
  plan.Add(std::make_unique<WindowAggregate>("agg", wopt));
  CollectorSink* sink = plan.Finish();
  SchedulerOptions opts;
  opts.queue.page_size = 8;
  Status st = plan.RunSync(opts);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collect(sink);
}

TEST(ColumnarEquivalenceTest, WindowAggregateMatchesElementWalk) {
  std::mt19937 rng(246810);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMax, AggKind::kMin}) {
    std::vector<TimedElement> elems = RandomAggStream(&rng, 300);
    Rows rows = RunAgg(elems, kind, /*batched=*/true);
    EXPECT_EQ(rows, RunAgg(elems, kind, /*batched=*/false))
        << AggKindName(kind);
    EXPECT_GT(rows.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// A projection that keeps no attribute stages zero-column blocks.
// ---------------------------------------------------------------------------

TEST(ColumnarEquivalenceTest, ZeroColumnProjectionStagesEmptyRows) {
  std::mt19937 rng(99);
  std::vector<TimedElement> elems = RandomChainStream(&rng, 100);
  size_t tuples = 0;
  for (const TimedElement& e : elems) tuples += e.element.is_tuple();
  testing_util::LinearPlan plan(ChainSchema(), elems);
  // The first stages zero-column blocks from row input, the second
  // re-points them in place.
  plan.Add(std::make_unique<Project>("none", std::vector<int>{}));
  plan.Add(std::make_unique<Project>("again", std::vector<int>{}));
  CollectorSink* sink = plan.Finish();
  SchedulerOptions opts;
  opts.queue.page_size = 16;
  ASSERT_TRUE(plan.RunSync(opts).ok());
  ASSERT_EQ(sink->collected().size(), tuples);
  for (const CollectedTuple& c : sink->collected()) {
    EXPECT_EQ(c.tuple.size(), 0);
  }
}

}  // namespace
}  // namespace nstream
