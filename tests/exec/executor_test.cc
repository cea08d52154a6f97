#include <gtest/gtest.h>

#include "exec/query_plan.h"
#include "ops/select.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::Int64Column;
using testing_util::LinearPlan;
using testing_util::P;

SchemaPtr TwoCol() {
  return Schema::Make(
      {{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
}

std::vector<TimedElement> SmallStream() {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.push_back(TupleBuilder().I64(i).D(i * 10.0).Build());
  }
  return AtMillis(std::move(tuples));
}

TEST(SyncExecutorTest, PassThroughDeliversEverything) {
  LinearPlan lp(TwoCol(), SmallStream());
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  EXPECT_EQ(sink->consumed(), 10u);
  EXPECT_EQ(Int64Column(sink->collected(), 0),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(SyncExecutorTest, SelectFilters) {
  LinearPlan lp(TwoCol(), SmallStream());
  lp.Add(Select::FromPattern("sel", P("[>=5,*]")));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunSync().ok());
  EXPECT_EQ(sink->consumed(), 5u);
}

TEST(VirtualTimeTest, SameResultsAsSync) {
  LinearPlan lp(TwoCol(), SmallStream());
  lp.Add(Select::FromPattern("sel", P("[>=5,*]")));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunVirtual().ok());
  EXPECT_EQ(sink->consumed(), 5u);
  EXPECT_EQ(Int64Column(sink->collected(), 0),
            (std::vector<int64_t>{5, 6, 7, 8, 9}));
}

TEST(VirtualTimeTest, VirtualTimeAdvancesWithCost) {
  LinearPlan lp(TwoCol(), SmallStream());
  CollectorSink* sink = lp.Finish({.charge_ms_per_tuple = 100.0});
  SchedulerOptions opts;
  opts.queue.page_size = 1;  // one tuple per slice, one charge per park
  ASSERT_TRUE(lp.RunVirtual(opts).ok());
  // 10 tuples x 100ms sink cost: the run must span at least 1000 ms of
  // virtual time even though tuples arrive 1ms apart.
  EXPECT_GE(lp.virtual_end_ms(), 1000);
  ASSERT_EQ(sink->collected().size(), 10u);
  // Output times reflect queueing behind the slow sink.
  EXPECT_GE(sink->collected().back().out_ms, 900);
}

TEST(VirtualTimeTest, DeterministicAcrossRuns) {
  auto run = [] {
    LinearPlan lp(TwoCol(), SmallStream());
    CollectorSink* sink = lp.Finish({.charge_ms_per_tuple = 3.5});
    EXPECT_TRUE(lp.RunVirtual().ok());
    std::vector<TimeMs> out;
    for (const auto& c : sink->collected()) out.push_back(c.out_ms);
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(ThreadedExecutorTest, PassThroughDeliversEverything) {
  LinearPlan lp(TwoCol(), SmallStream());
  lp.Add(Select::FromPattern("sel", P("[>=2,*]")));
  CollectorSink* sink = lp.Finish();
  ASSERT_TRUE(lp.RunThreaded().ok());
  EXPECT_EQ(sink->consumed(), 8u);
}

TEST(ThreadedExecutorTest, PacedProducerDoesNotStrandTuplesWhileParked) {
  // A burst due at 1, 2 and 3 ms, then nothing until 400 ms: the
  // source thread must flush its output queue's open page before it
  // sleeps until the next arrival, or the burst waits 400 ms there.
  std::vector<TimedElement> feed;
  for (TimeMs at : {1, 2, 3, 400}) {
    feed.push_back(TimedElement::OfTuple(
        at, TupleBuilder().I64(at).D(0.0).Build()));
  }
  LinearPlan lp(TwoCol(), std::move(feed));
  CollectorSink* sink = lp.Finish();
  ThreadedExecutorOptions opts;
  opts.pace_sources = true;
  ASSERT_TRUE(lp.RunThreaded(opts).ok());
  ASSERT_EQ(sink->collected().size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_LT(sink->collected()[i].out_ms, 200)
        << "tuple " << i << " waited for the producer's next arrival";
  }
  EXPECT_GE(sink->collected()[3].out_ms, 400);
}

TEST(QueryPlanTest, RejectsUnwiredPorts) {
  QueryPlan plan;
  plan.AddOp(std::make_unique<VectorSource>("src", TwoCol(),
                                            SmallStream()));
  EXPECT_FALSE(plan.Finalize().ok());  // source output unwired
}

TEST(QueryPlanTest, RejectsDoubleWiring) {
  QueryPlan plan;
  auto* src = plan.AddOp(
      std::make_unique<VectorSource>("src", TwoCol(), SmallStream()));
  auto* s1 = plan.AddOp(std::make_unique<CollectorSink>("s1"));
  auto* s2 = plan.AddOp(std::make_unique<CollectorSink>("s2"));
  ASSERT_TRUE(plan.Connect(*src, *s1).ok());
  EXPECT_EQ(plan.Connect(*src, *s2).code(), StatusCode::kAlreadyExists);
}

TEST(QueryPlanTest, SchemaInferencePropagates) {
  LinearPlan lp(TwoCol(), SmallStream());
  auto* sel = lp.Add(Select::FromPattern("sel", P("[*,*]")));
  lp.Finish();
  ASSERT_TRUE(lp.plan()->Finalize().ok());
  EXPECT_TRUE(sel->output_schema(0)->Equals(*TwoCol()));
  EXPECT_NE(lp.plan()->ToString().find("sel"), std::string::npos);
}

TEST(QueryPlanTest, TopoOrderRespectsEdges) {
  LinearPlan lp(TwoCol(), SmallStream());
  lp.Add(Select::FromPattern("a", P("[*,*]")));
  lp.Add(Select::FromPattern("b", P("[*,*]")));
  lp.Finish();
  ASSERT_TRUE(lp.plan()->Finalize().ok());
  const auto& topo = lp.plan()->topo_order();
  ASSERT_EQ(topo.size(), 4u);
  EXPECT_EQ(topo.front(), lp.source()->id());
  EXPECT_EQ(topo.back(), lp.sink()->id());
}

}  // namespace
}  // namespace nstream
