// Hashed-key join correctness: the (wid, hash) table key is only a
// bucket address — equality must be re-established per entry. Forcing
// every key onto one hash value makes every probe a collision storm
// and the join must still produce exactly the equi-join result.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;

SchemaPtr LeftSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"l", ValueType::kInt64}});
}
SchemaPtr RightSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"r", ValueType::kInt64}});
}

std::multiset<std::string> RunJoinCollect(
    std::vector<Tuple> left, std::vector<Tuple> right,
    JoinOptions jopt) {
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), AtMillis(std::move(left))));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), AtMillis(std::move(right))));
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
  EXPECT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
  EXPECT_TRUE(plan.Connect(*join, *sink).ok());
  SyncExecutor exec;
  Status st = exec.Run(&plan);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::multiset<std::string> out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

JoinOptions KeyOnFirst() {
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  return jopt;
}

TEST(JoinHashCollision, ForcedCollisionsDoNotFabricateJoins) {
  std::vector<Tuple> left;
  std::vector<Tuple> right;
  for (int i = 0; i < 20; ++i) {
    left.push_back(TupleBuilder().I64(i).I64(100 + i).Build());
    // Right has keys 0..9 twice; keys 10..19 never match.
    right.push_back(TupleBuilder().I64(i % 10).I64(200 + i).Build());
  }

  JoinOptions normal = KeyOnFirst();
  JoinOptions collide = KeyOnFirst();
  // Every key hashes identically: the table degenerates into a single
  // bucket and only collision-checked equality separates keys.
  collide.key_hash_override = [](const Tuple&, int, int64_t) {
    return uint64_t{0};
  };

  std::multiset<std::string> want =
      RunJoinCollect(left, right, normal);
  std::multiset<std::string> got =
      RunJoinCollect(left, right, collide);

  // 10 matching keys × 2 right duplicates = 20 results either way.
  EXPECT_EQ(want.size(), 20u);
  EXPECT_EQ(got, want);
}

TEST(JoinHashCollision, UnequalKeysWithEqualHashNeverJoin) {
  // Two tuples, different keys, same (forced) hash: zero output.
  JoinOptions collide = KeyOnFirst();
  collide.key_hash_override = [](const Tuple&, int, int64_t) {
    return uint64_t{42};
  };
  std::multiset<std::string> got = RunJoinCollect(
      {TupleBuilder().I64(1).I64(10).Build()},
      {TupleBuilder().I64(2).I64(20).Build()}, collide);
  EXPECT_TRUE(got.empty());
}

TEST(JoinHashCollision, WindowIdSeparatesCollidingKeys) {
  // Windowed join with a constant hash: same key in different windows
  // must not join (the wid check is part of collision resolution).
  SchemaPtr schema = Schema::Make(
      {{"k", ValueType::kInt64}, {"ts", ValueType::kTimestamp}});
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window_join = true;
  jopt.window = {1'000, 1'000};
  jopt.key_hash_override = [](const Tuple&, int, int64_t) {
    return uint64_t{7};
  };

  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", schema,
      AtMillis({TupleBuilder().I64(1).Ts(100).Build(),
                TupleBuilder().I64(1).Ts(2'100).Build()})));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", schema,
      AtMillis({TupleBuilder().I64(1).Ts(150).Build(),
                TupleBuilder().I64(1).Ts(5'100).Build()})));
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*l, 0, *join, 0).ok());
  ASSERT_TRUE(plan.Connect(*r, 0, *join, 1).ok());
  ASSERT_TRUE(plan.Connect(*join, *sink).ok());
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());
  // Only the window-0 pair (ts 100 ⋈ ts 150) joins; windows 2 and 5
  // hold the same key and collide in hash but must stay separate.
  ASSERT_EQ(sink->collected().size(), 1u);
  EXPECT_EQ(sink->collected()[0]
                .tuple.value(1)
                .timestamp_value(),
            100);
}

TEST(JoinHashCollision, NumericallyEqualKeysJoinAcrossTypes) {
  // Int64(5) and Double(5.0) are equal under Value::operator== and
  // hash identically, so they key to the same join group.
  std::multiset<std::string> got = RunJoinCollect(
      {TupleBuilder().I64(5).I64(10).Build()},
      {Tuple(std::vector<Value>{Value::Double(5.0), Value::Int64(20)})},
      KeyOnFirst());
  EXPECT_EQ(got.size(), 1u);
}

}  // namespace
}  // namespace nstream
