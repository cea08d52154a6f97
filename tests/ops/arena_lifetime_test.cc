// Arena lifetime across the operator layer: tuples copied into join
// tables must outlive their source pages (including string payloads
// that lived in arena bytes), staged/queued arena pages must survive
// feedback surgery, and whole pipelines must produce the results a
// reference derived from their input gives (a nested-loop join; the
// aggregate's element walk) — on the batched and element-wise paths,
// under the sync and threaded executors.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
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

// ---------------------------------------------------------------------------
// Join-table inserts: arena-backed inputs (built by an upstream
// Project into its staging pages' arenas) are copied into the join's
// window tables, their source pages die, and the join must still emit correct
// string payloads — both on the probe path and on the left-outer path
// at window close / EOS.
// ---------------------------------------------------------------------------

SchemaPtr SideSchema(const char* payload) {
  return Schema::Make({{"k", ValueType::kString},
                       {"ts", ValueType::kTimestamp},
                       {payload, ValueType::kString},
                       {"pad", ValueType::kInt64}});
}

std::vector<Tuple> StringSide(int n, const char* tag, int key_mod,
                              int ts_spread) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(TupleBuilder()
                      .S("key-" + std::to_string(i % key_mod))
                      .Ts(i % ts_spread)
                      .S(std::string(tag) + "-" + std::to_string(i))
                      .I64(i)
                      .Build());
  }
  return out;
}

struct JoinRows {
  std::multiset<std::string> rows;
  uint64_t joined = 0;
};

JoinOptions StringJoinOptions(bool left_outer, bool batched) {
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window_join = true;
  jopt.window = WindowSpec{10, 10};
  jopt.left_outer = left_outer;
  jopt.page_batched_probe = batched;
  jopt.output_page_size = 8;  // several staged-page generations
  return jopt;
}

// The nested-loop reference for RunStringJoin(n, left_outer, ...).
std::multiset<std::string> StringJoinOracle(int n, bool left_outer) {
  return testing_util::NestedLoopJoin(
      StringSide(n, "left", 9, 40), StringSide(n, "right", 7, 40),
      StringJoinOptions(left_outer, /*batched=*/true));
}

JoinRows RunStringJoin(int n, bool left_outer, bool batched,
                       bool threaded) {
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", SideSchema("lp"), AtMillis(StringSide(n, "left", 9, 40))));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", SideSchema("rp"), AtMillis(StringSide(n, "right", 7, 40))));
  // Identity-permutation projections: their paged path rebuilds every
  // tuple in a staging page's arena, so the join's inputs are
  // arena-backed (string values borrowing page bytes) — exactly the
  // shape table promotion must survive.
  auto* pl = plan.AddOp(
      std::make_unique<Project>("pl", std::vector<int>{0, 1, 2, 3}));
  auto* pr = plan.AddOp(
      std::make_unique<Project>("pr", std::vector<int>{0, 1, 2, 3}));
  auto* join = plan.AddOp(std::make_unique<SymmetricHashJoin>(
      "join", StringJoinOptions(left_outer, batched)));
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
    opts.queue.page_size = 16;  // many short-lived input pages
    SyncExecutor exec(opts);
    st = exec.Run(&plan);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  JoinRows out;
  for (const CollectedTuple& c : sink->collected()) {
    out.rows.insert(c.tuple.ToString());
  }
  out.joined = join->joined_count();
  return out;
}

TEST(ArenaLifetimeTest, PromotedTableTuplesOutliveSourcePages) {
  JoinRows with = RunStringJoin(200, /*left_outer=*/false,
                                /*batched=*/true, /*threaded=*/false);
  EXPECT_GT(with.joined, 0u);
  // Every row's string payloads must have survived promotion intact.
  for (const std::string& row : with.rows) {
    EXPECT_NE(row.find("'key-"), std::string::npos) << row;
    EXPECT_NE(row.find("'left-"), std::string::npos) << row;
  }
  EXPECT_EQ(with.rows, StringJoinOracle(200, /*left_outer=*/false));
}

TEST(ArenaLifetimeTest, LeftOuterEmissionFromPromotedEntries) {
  // Outer rows materialize at window close / EOS, long after every
  // input page (and its arena) is gone — they read only the promoted
  // table copies.
  JoinRows with = RunStringJoin(150, /*left_outer=*/true,
                                /*batched=*/true, /*threaded=*/false);
  EXPECT_EQ(with.rows, StringJoinOracle(150, /*left_outer=*/true));
  // Outer rows (NULL-padded right attributes) must be present — they
  // are built from promoted table entries exclusively.
  size_t outer_rows = 0;
  for (const std::string& row : with.rows) {
    if (row.find("null") != std::string::npos) ++outer_rows;
  }
  EXPECT_GT(outer_rows, 0u);
}

TEST(ArenaLifetimeTest, ThreadedExecutorSameRows) {
  JoinRows sync_rows = RunStringJoin(150, /*left_outer=*/true,
                                     /*batched=*/true, /*threaded=*/false);
  JoinRows threaded_rows = RunStringJoin(150, true, true,
                                         /*threaded=*/true);
  EXPECT_EQ(sync_rows.rows, threaded_rows.rows);
}

// ---------------------------------------------------------------------------
// Randomized windowed + left-outer join: both probe paths must yield
// the nested-loop join's result multiset.
// ---------------------------------------------------------------------------

SchemaPtr IntSide() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kInt64}});
}

std::vector<Tuple> RandomSide(std::mt19937* rng, int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(TupleBuilder()
                      .I64(static_cast<int64_t>((*rng)() % 12))
                      .Ts(static_cast<int64_t>((*rng)() % 60))
                      .I64(i)
                      .Build());
  }
  return out;
}

JoinOptions IntJoinOptions(bool batched) {
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window_join = true;
  jopt.window = WindowSpec{10, 10};
  jopt.left_outer = true;
  jopt.page_batched_probe = batched;
  return jopt;
}

std::multiset<std::string> RunIntJoin(const std::vector<Tuple>& left,
                                      const std::vector<Tuple>& right,
                                      bool batched) {
  QueryPlan plan;
  auto* l = plan.AddOp(
      std::make_unique<VectorSource>("L", IntSide(), AtMillis(left)));
  auto* r = plan.AddOp(
      std::make_unique<VectorSource>("R", IntSide(), AtMillis(right)));
  auto* join = plan.AddOp(
      std::make_unique<SymmetricHashJoin>("join", IntJoinOptions(batched)));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
  EXPECT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
  EXPECT_TRUE(plan.Connect(*join, *sink).ok());
  SchedulerOptions opts;
  opts.queue.page_size = 8;
  SyncExecutor exec(opts);
  Status st = exec.Run(&plan);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::multiset<std::string> rows;
  for (const CollectedTuple& c : sink->collected()) {
    rows.insert(c.tuple.ToString());
  }
  return rows;
}

TEST(ArenaLifetimeTest, RandomizedJoinMatchesNestedLoop) {
  std::mt19937 rng(20260728);
  for (int round = 0; round < 6; ++round) {
    std::vector<Tuple> left = RandomSide(&rng, 150);
    std::vector<Tuple> right = RandomSide(&rng, 150);
    const std::multiset<std::string> expect = testing_util::NestedLoopJoin(
        left, right, IntJoinOptions(/*batched=*/true));
    EXPECT_GT(expect.size(), 0u);
    for (bool batched : {true, false}) {
      EXPECT_EQ(RunIntJoin(left, right, batched), expect)
          << "round " << round << " batched " << batched;
    }
  }
}

// ---------------------------------------------------------------------------
// WindowAggregate: batched (run-grouped) input vs the element walk —
// identical rows and counters.
// ---------------------------------------------------------------------------

SchemaPtr AggSchema() {
  return Schema::Make({{"ts", ValueType::kTimestamp},
                       {"g", ValueType::kInt64},
                       {"v", ValueType::kDouble}});
}

struct AggRun {
  std::multiset<std::string> rows;
  uint64_t applied = 0;
  uint64_t skipped = 0;
  uint64_t tuples_in = 0;
};

AggRun RunAgg(const std::vector<TimedElement>& elems, AggKind kind,
              bool batched) {
  QueryPlan plan;
  auto* src = plan.AddOp(std::make_unique<VectorSource>(
      "src", AggSchema(), elems));
  WindowAggregateOptions wopt;
  wopt.ts_attr = 0;
  wopt.group_attrs = {1};
  wopt.agg_attr = 2;
  wopt.kind = kind;
  wopt.window = WindowSpec{100, 100};
  wopt.page_batched_input = batched;
  wopt.output_page_size = 4;
  auto* agg = plan.AddOp(
      std::make_unique<WindowAggregate>("agg", wopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*src, *agg).ok());
  EXPECT_TRUE(plan.Connect(*agg, *sink).ok());
  SchedulerOptions opts;
  opts.queue.page_size = 8;
  SyncExecutor exec(opts);
  Status st = exec.Run(&plan);
  EXPECT_TRUE(st.ok()) << st.ToString();
  AggRun out;
  for (const CollectedTuple& c : sink->collected()) {
    out.rows.insert(c.tuple.ToString());
  }
  out.applied = agg->updates_applied();
  out.skipped = agg->updates_skipped();
  out.tuples_in = agg->stats().tuples_in;
  return out;
}

std::vector<TimedElement> RandomAggStream(std::mt19937* rng, int n) {
  std::vector<TimedElement> out;
  TimeMs at = 0;
  int64_t max_ts = 0;
  for (int i = 0; i < n; ++i) {
    int64_t ts = static_cast<int64_t>((*rng)() % 500);
    max_ts = std::max(max_ts, ts);
    out.push_back(TimedElement::OfTuple(
        at++, TupleBuilder()
                  .Ts(ts)
                  .I64(static_cast<int64_t>((*rng)() % 5))
                  .D(static_cast<double>((*rng)() % 1000) / 10.0)
                  .Build()));
    if (i > 0 && i % 37 == 0) {
      // Progress punctuation: everything at or below the max seen so
      // far is complete (true for this generator only in hindsight —
      // good enough to close windows and bound runs).
      int64_t bound = static_cast<int64_t>((*rng)() % 500);
      out.push_back(TimedElement::OfPunct(
          at++, Punctuation(P("[<=t:" + std::to_string(bound) +
                              ",*,*]"))));
    }
  }
  (void)max_ts;
  return out;
}

TEST(ArenaLifetimeTest, WindowAggregateBatchedEquivalence) {
  std::mt19937 rng(987654);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMax, AggKind::kMin}) {
    std::vector<TimedElement> elems = RandomAggStream(&rng, 300);
    AggRun batched = RunAgg(elems, kind, /*batched=*/true);
    AggRun element = RunAgg(elems, kind, /*batched=*/false);
    EXPECT_EQ(batched.rows, element.rows) << AggKindName(kind);
    EXPECT_EQ(batched.applied, element.applied);
    EXPECT_EQ(batched.skipped, element.skipped);
    EXPECT_EQ(batched.tuples_in, element.tuples_in);
    EXPECT_GT(batched.rows.size(), 0u);
  }
}

TEST(ArenaLifetimeTest, WindowAggregateCollisionFallbackAgrees) {
  // Stress the group-hash collision path indirectly: many groups per
  // tiny window so runs regularly contain multiple distinct keys, on
  // a stream with interleaved punctuation.
  std::mt19937 rng(13579);
  std::vector<TimedElement> elems = RandomAggStream(&rng, 500);
  AggRun batched = RunAgg(elems, AggKind::kSum, true);
  AggRun element = RunAgg(elems, AggKind::kSum, false);
  EXPECT_EQ(batched.rows, element.rows);
  EXPECT_EQ(batched.applied, element.applied);
}

// ---------------------------------------------------------------------------
// Select's in-place page forwarding keeps arena payloads alive through
// the hop (the filtered page itself travels with its arena).
// ---------------------------------------------------------------------------

TEST(ArenaLifetimeTest, SelectForwardsArenaPagesIntact) {
  QueryPlan plan;
  std::vector<Tuple> in;
  for (int i = 0; i < 100; ++i) {
    in.push_back(TupleBuilder()
                     .S("s-" + std::to_string(i))
                     .Ts(i)
                     .I64(i)
                     .Build());
  }
  auto* src = plan.AddOp(std::make_unique<VectorSource>(
      "src",
      Schema::Make({{"s", ValueType::kString},
                    {"ts", ValueType::kTimestamp},
                    {"i", ValueType::kInt64}}),
      AtMillis(std::move(in))));
  // Project first so pages reaching Select hold arena-backed tuples.
  auto* proj = plan.AddOp(
      std::make_unique<Project>("proj", std::vector<int>{0, 1, 2}));
  auto* sel = plan.AddOp(std::make_unique<Select>(
      "sel", [](const Tuple& t) {
        return t.value(2).int64_value() % 3 != 0;
      }));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*src, *proj).ok());
  EXPECT_TRUE(plan.Connect(*proj, *sel).ok());
  EXPECT_TRUE(plan.Connect(*sel, *sink).ok());
  SchedulerOptions opts;
  opts.queue.page_size = 16;
  SyncExecutor exec(opts);
  ASSERT_TRUE(exec.Run(&plan).ok());
  ASSERT_EQ(sink->collected().size(), 66u);
  for (const CollectedTuple& c : sink->collected()) {
    int64_t i = c.tuple.value(2).int64_value();
    EXPECT_NE(i % 3, 0);
    EXPECT_EQ(c.tuple.value(0).string_view(), "s-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace nstream
