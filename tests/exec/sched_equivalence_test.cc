// Randomized multi-plan equivalence stress (ISSUE satellite 1): N
// generated plans — filter chains, windowed symmetric joins, windowed
// LEFT OUTER joins, and joins with sink-driven feedback purges — each
// run under the pooled scheduler at pool sizes {1, 2, 4, hw} and under
// the seeded manual harness with wake deferral, always compared
// against a fresh ThreadedExecutor run of the identically-seeded plan
// (the one executor whose driver does not share the scheduler's slice
// body; SyncExecutor is the manual-mode scheduler).
// Output multisets must match exactly. Every assertion carries the
// (kind, plan seed, pool / harness seed) triple so a failure
// reproduces from its printed seed.
//
// The feedback plans are designed so purges CANNOT change the output:
// left keys span 0..95 but right keys only 0..47, and the sink's
// feedback addresses keys >= 48 — state that can never join. The purge
// path (sink → join purge → upstream guards) is fully exercised while
// the answer stays executor-independent.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "testing/sched_harness.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::FB;
using testing_util::P;
using testing_util::SchedHarness;
using testing_util::SchedHarnessOptions;

enum PlanKind {
  kFilterChain = 0,
  kWindowJoin,
  kOuterWindowJoin,
  kFeedbackJoin,
  kNumPlanKinds,
};

const char* PlanKindName(int kind) {
  switch (kind) {
    case kFilterChain: return "filter-chain";
    case kWindowJoin: return "window-join";
    case kOuterWindowJoin: return "outer-window-join";
    case kFeedbackJoin: return "feedback-join";
    default: return "?";
  }
}

/// One generated plan instance. Plans are single-shot, so every run
/// (reference or subject) builds a fresh one from the same seed.
struct PlanKit {
  QueryPlan plan;
  CollectorSink* sink = nullptr;
};

SchemaPtr SideSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kInt64}});
}

std::vector<TimedElement> SideElements(int n, int64_t key_lo,
                                       int64_t key_hi, int64_t tag,
                                       Rng* rng) {
  std::vector<TimedElement> out;
  for (int i = 0; i < n; ++i) {
    int64_t k = rng->NextInt(key_lo, key_hi);
    out.push_back(TimedElement::OfTuple(
        i, TupleBuilder().I64(k).Ts(i).I64(k * 1000 + tag).Build()));
  }
  return out;
}

std::unique_ptr<PlanKit> BuildPlan(int kind, uint64_t seed) {
  auto kit = std::make_unique<PlanKit>();
  Rng rng(seed * 2654435761u + static_cast<uint64_t>(kind) + 1);

  if (kind == kFilterChain) {
    SchemaPtr schema = Schema::Make(
        {{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
    std::vector<Tuple> tuples;
    const int n = 200 + static_cast<int>(rng.NextBounded(200));
    for (int i = 0; i < n; ++i) {
      tuples.push_back(TupleBuilder()
                           .I64(rng.NextInt(0, 19))
                           .I64(rng.NextInt(0, 999))
                           .Build());
    }
    auto* src = kit->plan.AddOp(std::make_unique<VectorSource>(
        "source", schema, AtMillis(std::move(tuples))));
    auto* s1 = kit->plan.AddOp(Select::FromPattern(
        "sel_v",
        P("[*,>=" + std::to_string(rng.NextInt(100, 500)) + "]")));
    auto* s2 = kit->plan.AddOp(Select::FromPattern(
        "sel_k",
        P("[<=" + std::to_string(rng.NextInt(8, 15)) + ",*]")));
    kit->sink = kit->plan.AddOp(std::make_unique<CollectorSink>("sink"));
    EXPECT_TRUE(kit->plan.Connect(*src, *s1).ok());
    EXPECT_TRUE(kit->plan.Connect(*s1, *s2).ok());
    EXPECT_TRUE(kit->plan.Connect(*s2, *kit->sink).ok());
    return kit;
  }

  // The three join shapes share the two-source skeleton.
  const int n = 250 + static_cast<int>(rng.NextBounded(150));
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  std::vector<TimedElement> left, right;
  CollectorSink::FeedbackDriver driver = nullptr;

  if (kind == kWindowJoin || kind == kOuterWindowJoin) {
    jo.window_join = true;
    jo.left_ts = 1;
    jo.right_ts = 1;
    jo.window = WindowSpec{/*range_ms=*/64, /*slide_ms=*/64};
    jo.left_outer = (kind == kOuterWindowJoin);
    // Outer: right keys cover only half the left range, so unmatched
    // left tuples (null-padded) are part of the expected answer.
    left = SideElements(n, 0, 31, /*tag=*/1, &rng);
    right = SideElements(n, 0, jo.left_outer ? 15 : 31, /*tag=*/2, &rng);
  } else {  // kFeedbackJoin
    left = SideElements(n, 0, 95, /*tag=*/1, &rng);
    right = SideElements(n, 0, 47, /*tag=*/2, &rng);
    // Once, from the first delivered result: declare keys >= 48 dead.
    // Those keys never join (the right side never produces them), so
    // the purge/guard cascade runs without changing the answer.
    auto sent = std::make_shared<bool>(false);
    driver = [sent](const Tuple&,
                    TimeMs) -> std::vector<FeedbackPunctuation> {
      if (*sent) return {};
      *sent = true;
      return {FB("~[>=48,*,*,*,*]")};
    };
  }

  auto* lsrc = kit->plan.AddOp(std::make_unique<VectorSource>(
      "L", SideSchema(), std::move(left)));
  auto* rsrc = kit->plan.AddOp(std::make_unique<VectorSource>(
      "R", SideSchema(), std::move(right)));
  auto* join = kit->plan.AddOp(
      std::make_unique<SymmetricHashJoin>("join", std::move(jo)));
  kit->sink = kit->plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{}, std::move(driver)));
  EXPECT_TRUE(kit->plan.Connect(*lsrc, 0, *join, 0).ok());
  EXPECT_TRUE(kit->plan.Connect(*rsrc, 0, *join, 1).ok());
  EXPECT_TRUE(kit->plan.Connect(*join, *kit->sink).ok());
  return kit;
}

std::multiset<std::string> Rows(const CollectorSink* sink) {
  std::multiset<std::string> out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

std::multiset<std::string> ThreadedReference(int kind, uint64_t seed) {
  std::unique_ptr<PlanKit> kit = BuildPlan(kind, seed);
  ThreadedExecutor exec;
  Status st = exec.Run(&kit->plan);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Rows(kit->sink);
}

std::vector<int> PoolSizes() {
  std::set<int> sizes = {1, 2, 4};
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) sizes.insert(static_cast<int>(hw));
  return std::vector<int>(sizes.begin(), sizes.end());
}

TEST(SchedEquivalence, AllPlanKindsAllPoolSizesMatchSync) {
  const std::vector<int> pools = PoolSizes();
  for (int kind = 0; kind < kNumPlanKinds; ++kind) {
    for (uint64_t seed : {11ULL, 12ULL, 13ULL}) {
      SCOPED_TRACE(std::string("plan=") + PlanKindName(kind) +
                   " seed=" + std::to_string(seed));
      const std::multiset<std::string> expect = ThreadedReference(kind, seed);
      ASSERT_FALSE(expect.empty());
      for (int pool : pools) {
        SCOPED_TRACE("pool=" + std::to_string(pool));
        std::unique_ptr<PlanKit> kit = BuildPlan(kind, seed);
        PooledExecutorOptions opts;
        opts.pool_size = pool;
        PooledExecutor exec(opts);
        Status st = exec.Run(&kit->plan);
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(expect, Rows(kit->sink));
        EXPECT_EQ(exec.scheduler()->stats().affinity_violations, 0u);
      }
    }
  }
}

TEST(SchedEquivalence, WakeStormCannotChangeAnswers) {
  for (int kind : {kWindowJoin, kFeedbackJoin}) {
    SCOPED_TRACE(std::string("plan=") + PlanKindName(kind));
    const uint64_t seed = 31;
    const std::multiset<std::string> expect = ThreadedReference(kind, seed);
    std::unique_ptr<PlanKit> kit = BuildPlan(kind, seed);
    SchedulerOptions sopts;
    sopts.num_workers = 2;
    Scheduler sched(sopts);
    Result<QueryId> id = sched.Submit(&kit->plan);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    std::atomic<bool> done{false};
    std::thread storm([&] {
      while (!done.load(std::memory_order_relaxed)) {
        sched.WakeAll();
        std::this_thread::yield();
      }
    });
    Status st = sched.Wait(id.value());
    done.store(true, std::memory_order_relaxed);
    storm.join();
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(expect, Rows(kit->sink));
    EXPECT_GT(sched.stats().wakes_ignored +
                  sched.stats().wakes_coalesced,
              0u)
        << "storm never overlapped the run; test lost its teeth";
  }
}

TEST(SchedEquivalence, ManualHarnessWithWakeDeferralMatchesSync) {
  // The harness explores wake reorderings (30% of wakes deferred and
  // re-injected at random later points). Every explored interleaving
  // must still produce the reference answer; failures print the harness
  // seed for exact replay.
  for (int kind = 0; kind < kNumPlanKinds; ++kind) {
    const uint64_t plan_seed = 41;
    const std::multiset<std::string> expect =
        ThreadedReference(kind, plan_seed);
    for (uint64_t hseed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(std::string("plan=") + PlanKindName(kind) +
                   " harness_seed=" + std::to_string(hseed));
      std::unique_ptr<PlanKit> kit = BuildPlan(kind, plan_seed);
      SchedHarnessOptions hopts;
      hopts.seed = hseed;
      hopts.wake_defer_prob = 0.3;
      SchedHarness harness(hopts);
      Status st = harness.Run(&kit->plan);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(expect, Rows(kit->sink));
    }
  }
}

}  // namespace
}  // namespace nstream
