// Page-at-a-time probe equivalence: SymmetricHashJoin::ProcessPage's
// memoized walk must produce exactly the element-wise walk's result
// multiset, with identical feedback counters, under randomized
// streams, forced hash collisions (every key in one chain via
// key_hash_override), window joins, and left-outer emission.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;

SchemaPtr LeftSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"l", ValueType::kInt64}});
}
SchemaPtr RightSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"r", ValueType::kInt64}});
}

struct RunResult {
  std::multiset<std::string> rows;
  uint64_t joined = 0;
  uint64_t impatient = 0;
  uint64_t gate = 0;
  uint64_t tuples_in = 0;
};

RunResult RunJoin(const std::vector<Tuple>& left,
                  const std::vector<Tuple>& right, JoinOptions jopt,
                  bool threaded = false) {
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), AtMillis(left)));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), AtMillis(right)));
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
  EXPECT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
  EXPECT_TRUE(plan.Connect(*join, *sink).ok());
  Status st;
  if (threaded) {
    ThreadedExecutor exec;
    st = exec.Run(&plan);
  } else {
    // Small pages so a run crosses many page boundaries.
    SchedulerOptions opts;
    opts.queue.page_size = 16;
    SyncExecutor exec(opts);
    st = exec.Run(&plan);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  RunResult out;
  for (const CollectedTuple& c : sink->collected()) {
    out.rows.insert(c.tuple.ToString());
  }
  out.joined = join->joined_count();
  out.impatient = join->impatient_feedbacks();
  out.gate = join->gate_feedbacks();
  out.tuples_in = join->stats().tuples_in;
  return out;
}

std::vector<Tuple> RandomSide(std::mt19937* rng, int n, int key_mod,
                              int ts_mod) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(TupleBuilder()
                      .I64(static_cast<int64_t>((*rng)() % key_mod))
                      .Ts(static_cast<int64_t>((*rng)() % ts_mod))
                      .I64(i)
                      .Build());
  }
  return out;
}

JoinOptions BaseOptions() {
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  return jopt;
}

void ExpectEquivalent(const std::vector<Tuple>& left,
                      const std::vector<Tuple>& right,
                      JoinOptions jopt) {
  JoinOptions element = jopt;
  element.page_batched_probe = false;
  RunResult e = RunJoin(left, right, element);
  EXPECT_GT(e.joined, 0u);  // vacuous equivalence is no evidence
  JoinOptions batched = jopt;
  batched.page_batched_probe = true;
  RunResult b = RunJoin(left, right, batched);
  EXPECT_EQ(b.rows, e.rows);
  EXPECT_EQ(b.joined, e.joined);
  EXPECT_EQ(b.impatient, e.impatient);
  EXPECT_EQ(b.gate, e.gate);
  EXPECT_EQ(b.tuples_in, e.tuples_in);
}

TEST(JoinBatchedProbe, RandomizedEquivalencePlainJoin) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Tuple> left = RandomSide(&rng, 300, 11, 1000);
    std::vector<Tuple> right = RandomSide(&rng, 300, 11, 1000);
    ExpectEquivalent(left, right, BaseOptions());
  }
}

TEST(JoinBatchedProbe, RandomizedEquivalenceForcedCollisions) {
  // Every key lands in one bucket: probe correctness rests entirely on
  // the collision-checked EqualsSubset, in both walks.
  std::mt19937 rng(13);
  JoinOptions jopt = BaseOptions();
  jopt.key_hash_override = [](const Tuple&, int, int64_t) {
    return uint64_t{0};
  };
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Tuple> left = RandomSide(&rng, 200, 7, 1000);
    std::vector<Tuple> right = RandomSide(&rng, 200, 7, 1000);
    ExpectEquivalent(left, right, jopt);
  }
}

TEST(JoinBatchedProbe, RandomizedEquivalenceWindowJoin) {
  std::mt19937 rng(29);
  JoinOptions jopt = BaseOptions();
  jopt.window_join = true;
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window = WindowSpec{100, 100};
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Tuple> left = RandomSide(&rng, 250, 9, 500);
    std::vector<Tuple> right = RandomSide(&rng, 250, 9, 500);
    ExpectEquivalent(left, right, jopt);
  }
}

TEST(JoinBatchedProbe, RandomizedEquivalenceLeftOuterWindowed) {
  std::mt19937 rng(31);
  JoinOptions jopt = BaseOptions();
  jopt.window_join = true;
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window = WindowSpec{100, 100};
  jopt.left_outer = true;
  // Sparse right side so outer rows actually appear.
  std::vector<Tuple> left = RandomSide(&rng, 250, 9, 500);
  std::vector<Tuple> right = RandomSide(&rng, 60, 9, 500);
  ExpectEquivalent(left, right, jopt);
}

TEST(JoinBatchedProbe, RandomizedEquivalenceGatedJoin) {
  // The adaptive gate: gated left tuples must not probe nor be probed
  // in either walk.
  std::mt19937 rng(37);
  JoinOptions jopt = BaseOptions();
  jopt.left_gate = [](const Tuple& t) {
    return t.value(2).int64_value() % 3 != 0;  // gate a third of them
  };
  std::vector<Tuple> left = RandomSide(&rng, 300, 8, 1000);
  std::vector<Tuple> right = RandomSide(&rng, 300, 8, 1000);
  ExpectEquivalent(left, right, jopt);
}

TEST(JoinBatchedProbe, DuplicateKeysWithinOnePageKeepPerKeyOrder) {
  // Several same-key tuples inside one page: within a key, output
  // order must match arrival order (window-table chains keep rows in
  // insertion order).
  std::vector<Tuple> left;
  for (int i = 0; i < 6; ++i) {
    left.push_back(TupleBuilder().I64(5).Ts(0).I64(i).Build());
  }
  std::vector<Tuple> right = {TupleBuilder().I64(5).Ts(0).I64(99).Build()};
  JoinOptions batched = BaseOptions();
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), AtMillis(left)));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), AtMillis(right)));
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", batched));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
  ASSERT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
  ASSERT_TRUE(plan.Connect(*join, *sink).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  // All six left tuples joined the one right tuple, in arrival order
  // of their sequence attribute (index 2).
  ASSERT_EQ(sink->collected().size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(sink->collected()[static_cast<size_t>(i)]
                  .tuple.value(2)
                  .int64_value(),
              i);
  }
}

TEST(JoinBatchedProbe, BurstyDuplicateRunsMatchElementWalk) {
  // Bursty streams — runs of identical keys, where the memoized chain
  // is reused tuple after tuple — must join exactly like the element
  // walk, including when the bursts cross page boundaries (page_size
  // 16, burst length 8) and when every key collides.
  std::mt19937 rng(47);
  for (bool collide : {false, true}) {
    JoinOptions jopt = BaseOptions();
    if (collide) {
      jopt.key_hash_override = [](const Tuple&, int, int64_t) {
        return uint64_t{0};
      };
    }
    std::vector<Tuple> left;
    std::vector<Tuple> right;
    for (int i = 0; i < 240; ++i) {
      left.push_back(TupleBuilder()
                         .I64(i / 8)  // 8-tuple bursts per key
                         .Ts(static_cast<int64_t>(rng() % 1000))
                         .I64(i)
                         .Build());
      right.push_back(TupleBuilder()
                          .I64(i / 8)
                          .Ts(static_cast<int64_t>(rng() % 1000))
                          .I64(i)
                          .Build());
    }
    ExpectEquivalent(left, right, jopt);
  }
}

TEST(JoinBatchedProbe, BatchedWalkPreservesFullElementOrder) {
  // The batched walk emits in exact element order — interleaved keys
  // stay interleaved.
  // A join slice drains its port-0 page before its port-1 page, so
  // the left rows are table-resident when the interleaved right page
  // probes.
  std::vector<Tuple> left = {
      TupleBuilder().I64(1).Ts(0).I64(100).Build(),
      TupleBuilder().I64(2).Ts(0).I64(200).Build()};
  std::vector<Tuple> right;
  for (int i = 0; i < 8; ++i) {
    right.push_back(TupleBuilder().I64(1 + i % 2).Ts(0).I64(i).Build());
  }
  JoinOptions jopt = BaseOptions();
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), AtMillis(left)));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), AtMillis(right)));
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
  ASSERT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
  ASSERT_TRUE(plan.Connect(*join, *sink).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  // Output = left attrs (k, ts, l) then right non-key attrs (ts, r):
  // the probing tuple's sequence number lands at output index 4.
  ASSERT_EQ(sink->collected().size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(sink->collected()[static_cast<size_t>(i)]
                  .tuple.value(4)
                  .int64_value(),
              i);
  }
}

TEST(JoinBatchedProbe, ThreadedExecutorMatchesSyncResults) {
  std::mt19937 rng(43);
  std::vector<Tuple> left = RandomSide(&rng, 200, 10, 1000);
  std::vector<Tuple> right = RandomSide(&rng, 200, 10, 1000);
  JoinOptions jopt = BaseOptions();
  RunResult sync_run = RunJoin(left, right, jopt, /*threaded=*/false);
  RunResult threaded_run = RunJoin(left, right, jopt, /*threaded=*/true);
  EXPECT_EQ(sync_run.rows, threaded_run.rows);
  EXPECT_GT(sync_run.rows.size(), 0u);
}

}  // namespace
}  // namespace nstream
