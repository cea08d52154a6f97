// Pooled scheduler coverage: pool-mode correctness vs ThreadedExecutor,
// task state machine behaviour, wake storms, failure propagation,
// worker affinity, the DataQueue consumer-affinity tripwire, the
// deterministic manual-mode harness (seed reproducibility + virtual
// time), the flush rule, and output credit.

#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/threaded_executor.h"
#include "ops/duplicate.h"
#include "ops/exchange.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "testing/sched_harness.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::LinearPlan;
using testing_util::P;
using testing_util::SchedHarness;
using testing_util::SchedHarnessOptions;

SchemaPtr VSchema() {
  return Schema::Make(
      {{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
}

std::vector<TimedElement> VWorkload(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    tuples.push_back(TupleBuilder()
                         .I64(rng.NextInt(0, 9))
                         .I64(rng.NextInt(0, 999))
                         .Build());
  }
  return AtMillis(std::move(tuples));
}

std::multiset<std::string> Collected(const CollectorSink* sink) {
  std::multiset<std::string> out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

std::multiset<std::string> RunSelectPipeline(int pool_size) {
  LinearPlan lp(VSchema(), VWorkload(700, 11));
  lp.Add(Select::FromPattern("sel", P("[*,>=300]")));
  CollectorSink* sink = lp.Finish();
  Status st;
  if (pool_size <= 0) {
    st = lp.RunSync();
  } else {
    PooledExecutorOptions opts;
    opts.pool_size = pool_size;
    st = lp.RunPooled(opts);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collected(sink);
}

TEST(PooledExecutor, SelectPipelineMatchesSyncAtAllPoolSizes) {
  std::multiset<std::string> expect = RunSelectPipeline(0);
  ASSERT_FALSE(expect.empty());
  for (int pool : {1, 2, 4}) {
    EXPECT_EQ(expect, RunSelectPipeline(pool)) << "pool=" << pool;
  }
}

TEST(PooledExecutor, MultiQuerySubmitWaitIsolates) {
  Scheduler sched(SchedulerOptions{});
  std::vector<std::unique_ptr<LinearPlan>> plans;
  std::vector<QueryId> ids;
  const int64_t bounds[3] = {100, 500, 900};
  for (int q = 0; q < 3; ++q) {
    plans.push_back(std::make_unique<LinearPlan>(
        VSchema(), VWorkload(400, 7 + static_cast<uint64_t>(q))));
    plans.back()->Add(Select::FromPattern(
        "sel", P("[*,>=" + std::to_string(bounds[q]) + "]")));
    plans.back()->Finish();
    Result<QueryId> id = sched.Submit(plans.back()->plan());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (int q = 0; q < 3; ++q) {
    EXPECT_TRUE(sched.Wait(ids[static_cast<size_t>(q)]).ok());
    // Against a fresh sync run of the identical plan.
    LinearPlan ref(VSchema(), VWorkload(400, 7 + static_cast<uint64_t>(q)));
    ref.Add(Select::FromPattern(
        "sel", P("[*,>=" + std::to_string(bounds[q]) + "]")));
    CollectorSink* ref_sink = ref.Finish();
    ASSERT_TRUE(ref.RunSync().ok());
    EXPECT_EQ(Collected(ref_sink),
              Collected(plans[static_cast<size_t>(q)]->sink()))
        << "query " << q;
  }
  EXPECT_TRUE(sched.AllDone());
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.tasks_created, 9u);  // 3 plans x (source, sel, sink)
  EXPECT_EQ(stats.tasks_killed, 9u);
  EXPECT_GT(stats.slices, 0u);
  EXPECT_EQ(stats.affinity_violations, 0u);
}

TEST(PooledExecutor, WakeStormDuringRunIsHarmless) {
  Scheduler sched(SchedulerOptions{});
  LinearPlan lp(VSchema(), VWorkload(2000, 23));
  lp.Add(Select::FromPattern("sel", P("[*,>=100]")));
  CollectorSink* sink = lp.Finish();
  Result<QueryId> id = sched.Submit(lp.plan());
  ASSERT_TRUE(id.ok());
  std::atomic<bool> done{false};
  std::thread storm([&] {
    while (!done.load(std::memory_order_relaxed)) {
      sched.WakeAll();  // spurious wakes must be idempotent
      std::this_thread::yield();
    }
  });
  Status st = sched.Wait(id.value());
  done.store(true, std::memory_order_relaxed);
  storm.join();
  ASSERT_TRUE(st.ok()) << st.ToString();

  LinearPlan ref(VSchema(), VWorkload(2000, 23));
  ref.Add(Select::FromPattern("sel", P("[*,>=100]")));
  CollectorSink* ref_sink = ref.Finish();
  ASSERT_TRUE(ref.RunSync().ok());
  EXPECT_EQ(Collected(ref_sink), Collected(sink));
}

class FailingOp final : public Operator {
 public:
  explicit FailingOp(int fail_after)
      : Operator("failer", 1, 1), fail_after_(fail_after) {}
  Status ProcessTuple(int, const Tuple& t) override {
    if (++seen_ > fail_after_) {
      return Status::Internal("failer: injected fault");
    }
    Emit(0, t);
    return Status::OK();
  }

 private:
  int fail_after_;
  int seen_ = 0;
};

TEST(PooledExecutor, OperatorErrorPropagatesThroughWait) {
  LinearPlan lp(VSchema(), VWorkload(500, 3));
  lp.Add(std::make_unique<FailingOp>(/*fail_after=*/50));
  lp.Finish();
  PooledExecutorOptions opts;
  opts.pool_size = 2;
  Status st = lp.RunPooled(opts);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("injected fault"), std::string::npos);
}

TEST(PooledExecutor, ShardAffinityPinsWorkersAndTripwireStaysQuiet) {
  QueryPlan plan;
  Rng rng(5);
  std::vector<TimedElement> left, right;
  for (int i = 0; i < 800; ++i) {
    int64_t lk = rng.NextInt(0, 96);
    int64_t rk = rng.NextInt(0, 96);
    left.push_back(TimedElement::OfTuple(
        i, TupleBuilder().I64(lk).Ts(i).I64(lk * 10 + 1).Build()));
    right.push_back(TimedElement::OfTuple(
        i, TupleBuilder().I64(rk).Ts(i).I64(rk * 10 + 2).Build()));
  }
  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                   {"ts", ValueType::kTimestamp},
                                   {"v", ValueType::kInt64}});
  auto* lsrc = plan.AddOp(
      std::make_unique<VectorSource>("L", schema, std::move(left)));
  auto* rsrc = plan.AddOp(
      std::make_unique<VectorSource>("R", schema, std::move(right)));
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  Result<PartitionedJoinPlan> pj =
      MakePartitionedJoin(&plan, "pjoin", jo, /*num_shards=*/4);
  ASSERT_TRUE(pj.ok()) << pj.status().ToString();
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  ASSERT_TRUE(plan.Connect(*lsrc, 0, *pj.value().left_exchange, 0).ok());
  ASSERT_TRUE(
      plan.Connect(*rsrc, 0, *pj.value().right_exchange, 0).ok());
  ASSERT_TRUE(
      plan.Connect(pj.value().merge->id(), 0, sink->id(), 0).ok());

  SchedulerOptions sopts;
  sopts.num_workers = 2;
  Scheduler sched(sopts);
  Result<QueryId> id = sched.Submit(&plan);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(sched.Wait(id.value()).ok());
  ASSERT_GT(sink->consumed(), 0u);

  // Every shard task must only ever have run on its pinned worker
  // (affinity key mod pool size).
  for (size_t s = 0; s < pj.value().shards.size(); ++s) {
    SymmetricHashJoin* shard = pj.value().shards[s];
    ASSERT_EQ(shard->scheduler_affinity(), static_cast<int>(s));
    uint32_t mask = sched.task_worker_mask(id.value(), shard->id());
    ASSERT_NE(mask, 0u) << "shard " << s << " never ran";
    uint32_t allowed = 1u << (s % 2);
    EXPECT_EQ(mask & ~allowed, 0u)
        << "shard " << s << " ran on foreign workers, mask=" << mask;
  }
  EXPECT_EQ(sched.stats().affinity_violations, 0u);
}

TEST(PooledExecutor, TaskStateIntrospectionAndNames) {
  EXPECT_STREQ(TaskStateName(TaskState::kQueued), "QUEUED");
  EXPECT_STREQ(TaskStateName(TaskState::kRunning), "RUNNING");
  EXPECT_STREQ(TaskStateName(TaskState::kWaiting), "WAITING");
  EXPECT_STREQ(TaskStateName(TaskState::kKilled), "KILLED");

  Scheduler sched(SchedulerOptions{});
  LinearPlan lp(VSchema(), VWorkload(50, 1));
  lp.Finish();
  Result<QueryId> id = sched.Submit(lp.plan());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sched.Wait(id.value()).ok());
  for (int64_t op = 0; op < lp.plan()->num_operators(); ++op) {
    EXPECT_EQ(sched.task_state(id.value(), op), TaskState::kKilled);
  }
}

// ---------------------------------------------------------------------------
// Consumer-affinity tripwire
// ---------------------------------------------------------------------------

/// Scoped non-fatal mode + thread-token reset so a failing test can't
/// poison later ones.
struct TripwireGuard {
  TripwireGuard() { DataQueue::SetAffinityViolationsFatal(false); }
  ~TripwireGuard() {
    DataQueue::SetAffinityViolationsFatal(true);
    DataQueue::SetThreadConsumerToken(0);
  }
};

TEST(AffinityTripwire, ForeignConsumerIsCaughtAndCounted) {
  TripwireGuard guard;
  DataQueue q(DataQueueOptions{/*page_size=*/2, /*max_pages=*/0});
  q.set_consumer_affinity_token(42);
  for (int i = 0; i < 4; ++i) {
    q.PushTuple(TupleBuilder().I64(i).Build());
  }

  // Pinned consumer: clean pops.
  DataQueue::SetThreadConsumerToken(42);
  EXPECT_TRUE(q.TryPopPage().has_value());
  EXPECT_EQ(q.affinity_violations(), 0u);

  // Foreign task: the pop still works (the wire observes, it does not
  // block) but the violation is counted.
  DataQueue::SetThreadConsumerToken(7);
  EXPECT_TRUE(q.TryPopPage().has_value());
  EXPECT_EQ(q.affinity_violations(), 1u);
  q.PurgeMatching(P("[*]"));
  EXPECT_EQ(q.affinity_violations(), 2u);

  // Untagged thread (token 0) is also foreign once the queue is pinned.
  DataQueue::SetThreadConsumerToken(0);
  q.TryPopPage();
  EXPECT_EQ(q.affinity_violations(), 3u);
}

TEST(AffinityTripwire, UnpinnedQueueNeverTrips) {
  TripwireGuard guard;
  DataQueue q;
  q.PushTuple(TupleBuilder().I64(1).Build());
  q.Flush();
  DataQueue::SetThreadConsumerToken(99);  // any thread may drain
  EXPECT_TRUE(q.TryPopPage().has_value());
  EXPECT_EQ(q.affinity_violations(), 0u);
}

// ---------------------------------------------------------------------------
// Manual mode + harness
// ---------------------------------------------------------------------------

TEST(ManualMode, WaitBeforeDoneIsFailedPrecondition) {
  SchedulerOptions sopts;
  sopts.manual = true;
  Scheduler sched(sopts);
  LinearPlan lp(VSchema(), VWorkload(10, 2));
  lp.Finish();
  Result<QueryId> id = sched.Submit(lp.plan());
  ASSERT_TRUE(id.ok());
  Status st = sched.Wait(id.value());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ManualMode, StepReadyAtRejectsStaleIndex) {
  SchedulerOptions sopts;
  sopts.manual = true;
  Scheduler sched(sopts);
  EXPECT_EQ(sched.StepReadyAt(0).code(), StatusCode::kOutOfRange);
}

/// Two-source partitioned-join plan: enough concurrency for pick-order
/// to matter, so determinism is a real claim.
struct JoinFixture {
  QueryPlan plan;
  CollectorSink* sink = nullptr;

  explicit JoinFixture(uint64_t seed) {
    Rng rng(seed);
    SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                     {"ts", ValueType::kTimestamp},
                                     {"v", ValueType::kInt64}});
    std::vector<TimedElement> left, right;
    for (int i = 0; i < 600; ++i) {
      int64_t lk = rng.NextInt(0, 48);
      int64_t rk = rng.NextInt(0, 48);
      left.push_back(TimedElement::OfTuple(
          i, TupleBuilder().I64(lk).Ts(i).I64(lk + 100).Build()));
      right.push_back(TimedElement::OfTuple(
          i, TupleBuilder().I64(rk).Ts(i).I64(rk + 200).Build()));
    }
    auto* lsrc = plan.AddOp(
        std::make_unique<VectorSource>("L", schema, std::move(left)));
    auto* rsrc = plan.AddOp(
        std::make_unique<VectorSource>("R", schema, std::move(right)));
    JoinOptions jo;
    jo.left_keys = {0};
    jo.right_keys = {0};
    Result<PartitionedJoinPlan> pj =
        MakePartitionedJoin(&plan, "pjoin", jo, /*num_shards=*/2);
    EXPECT_TRUE(pj.ok());
    sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
    EXPECT_TRUE(plan.Connect(*lsrc, 0, *pj.value().left_exchange, 0).ok());
    EXPECT_TRUE(
        plan.Connect(*rsrc, 0, *pj.value().right_exchange, 0).ok());
    EXPECT_TRUE(
        plan.Connect(pj.value().merge->id(), 0, sink->id(), 0).ok());
  }
};

std::vector<std::string> HarnessJoinRun(uint64_t harness_seed,
                                        double defer_prob,
                                        uint64_t* steps_out) {
  JoinFixture fx(/*seed=*/31);
  SchedHarnessOptions hopts;
  hopts.seed = harness_seed;
  hopts.wake_defer_prob = defer_prob;
  SchedHarness harness(hopts);
  Status st = harness.Run(&fx.plan);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (steps_out != nullptr) *steps_out = harness.steps();
  std::vector<std::string> rows;
  for (const CollectedTuple& c : fx.sink->collected()) {
    rows.push_back(c.tuple.ToString());
  }
  return rows;
}

TEST(SchedHarnessTest, SameSeedReproducesExactInterleaving) {
  uint64_t steps_a = 0, steps_b = 0;
  std::vector<std::string> a = HarnessJoinRun(1234, 0.3, &steps_a);
  std::vector<std::string> b = HarnessJoinRun(1234, 0.3, &steps_b);
  ASSERT_FALSE(a.empty());
  // EXACT sequence equality (not just multiset): same seed, same
  // pick order, same wake deferrals, same element order end to end.
  EXPECT_EQ(a, b);
  EXPECT_EQ(steps_a, steps_b);
}

TEST(SchedHarnessTest, ResultsMatchSyncAcrossSeedsAndDeferral) {
  JoinFixture ref(/*seed=*/31);
  ThreadedExecutor reference;
  ASSERT_TRUE(reference.Run(&ref.plan).ok());
  std::multiset<std::string> expect;
  for (const CollectedTuple& c : ref.sink->collected()) {
    expect.insert(c.tuple.ToString());
  }
  ASSERT_FALSE(expect.empty());
  for (uint64_t seed : {7ULL, 99ULL, 4242ULL}) {
    std::vector<std::string> rows =
        HarnessJoinRun(seed, /*defer_prob=*/0.4, nullptr);
    EXPECT_EQ(expect, std::multiset<std::string>(rows.begin(),
                                                 rows.end()))
        << "seed=" << seed;
  }
}

TEST(SchedHarnessTest, VirtualTimePacingAndChargeAdvanceTheClock) {
  // 10 arrivals 5ms apart; the sink charges 2ms per tuple. Under the
  // harness this all happens in VIRTUAL time: the drive loop advances
  // the clock to each due arrival, each charge busy-parks the sink
  // for 2ms (the drive loop then advances to the park's due time),
  // and no wall-clock sleeping happens anywhere.
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.push_back(TupleBuilder().I64(i).I64(i).Build());
  }
  LinearPlan lp(VSchema(), AtMillis(std::move(tuples), /*start=*/0,
                                    /*step=*/5));
  CollectorSinkOptions sopt;
  sopt.charge_ms_per_tuple = 2.0;
  CollectorSink* sink = lp.Finish(sopt);

  SchedHarnessOptions hopts;
  hopts.seed = 5;
  hopts.sched.pace_sources = true;
  hopts.sched.queue.page_size = 1;  // deliver per-arrival
  SchedHarness harness(hopts);
  ASSERT_TRUE(harness.Run(lp.plan()).ok());
  ASSERT_EQ(sink->collected().size(), 10u);
  // The last arrival is due at 45ms of virtual time and its charge
  // lands after that, so the clock must end at >= 47ms. (Earlier
  // charges overlap the arrival span, so 47 — not 45 + 20 — is the
  // guaranteed floor.)
  EXPECT_GE(harness.clock()->NowMs(), 47);
  // Arrival pacing is visible in the recorded output times: tuple i
  // cannot be seen before its 5i ms due time.
  for (size_t i = 0; i < sink->collected().size(); ++i) {
    EXPECT_GE(sink->collected()[i].out_ms,
              static_cast<TimeMs>(5 * i))
        << "tuple " << i << " surfaced before its arrival was due";
  }
}

TEST(SchedHarnessTest, StallReportsSeedInMessage) {
  // A plan whose source never finishes would stall the harness; here
  // we fake the simpler variant: drive an empty scheduler with a
  // deferred wake that never releases is impossible, so instead check
  // the seed lands in the step-budget message path by exhausting a
  // tiny budget.
  JoinFixture fx(/*seed=*/31);
  SchedHarnessOptions hopts;
  hopts.seed = 777;
  hopts.max_steps = 3;  // absurdly small: guaranteed overrun
  SchedHarness harness(hopts);
  Status st = harness.Run(&fx.plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("seed=777"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------------
// The flush rule: output pages fill across input pages and go out when
// full, before punctuation, at EOS, and when the task parks.
// ---------------------------------------------------------------------------

TEST(PooledExecutor, PacedProducerDoesNotStrandTuplesWhileParked) {
  // A burst due at 1, 2 and 3 ms, then nothing until 400 ms. The
  // source emits tuple by tuple into its output queue's open page; it
  // must flush that page when it parks to wait for the next arrival,
  // or the burst waits there for 400 ms.
  std::vector<TimedElement> feed;
  for (TimeMs at : {1, 2, 3, 400}) {
    feed.push_back(
        TimedElement::OfTuple(at, TupleBuilder().I64(at).I64(0).Build()));
  }
  LinearPlan lp(VSchema(), std::move(feed));
  CollectorSink* sink = lp.Finish();
  PooledExecutorOptions opts;
  opts.pace_sources = true;
  ASSERT_TRUE(lp.RunPooled(opts).ok());
  ASSERT_EQ(sink->collected().size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_LT(sink->collected()[i].out_ms, 200)
        << "tuple " << i << " waited for the producer's next arrival";
  }
  EXPECT_GE(sink->collected()[3].out_ms, 400);
}

/// Collects rows and logs every tuple page it receives: the row count
/// and the shard that produced it (a shard page holds only its own
/// keys, and ShardMerge forwards shard pages whole).
class PageLogSink final : public Operator {
 public:
  explicit PageLogSink(int shards) : Operator("sink", 1, 0), shards_(shards) {}

  struct Logged {
    int shard = -1;
    size_t rows = 0;
  };

  Status ProcessTuple(int, const Tuple& t) override {
    rows.insert(t.ToString());
    return Status::OK();
  }
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    page.EnsureRowLayout();
    size_t n = 0;
    for (const StreamElement& e : page.elements()) n += e.is_tuple();
    if (n > 0) {
      const Tuple& first = page.elements().front().tuple();
      pages.push_back(
          {Exchange::ShardOfHash(Exchange::RoutingHash(first, {0}), shards_),
           n});
    }
    return Operator::ProcessPage(port, std::move(page), tick);
  }

  std::multiset<std::string> rows;
  std::vector<Logged> pages;

 private:
  int shards_;
};

/// Windowed partitioned join over two paced feeds into a PageLogSink.
struct PJoinRig {
  QueryPlan plan;
  PartitionedJoinPlan pj;
  PageLogSink* sink = nullptr;

  PJoinRig(std::vector<TimedElement> left, std::vector<TimedElement> right,
           int shards, TimeMs window_ms) {
    SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                     {"ts", ValueType::kTimestamp},
                                     {"v", ValueType::kInt64}});
    auto* lsrc = plan.AddOp(
        std::make_unique<VectorSource>("L", schema, std::move(left)));
    auto* rsrc = plan.AddOp(
        std::make_unique<VectorSource>("R", schema, std::move(right)));
    JoinOptions jo;
    jo.left_keys = {0};
    jo.right_keys = {0};
    jo.window_join = true;
    jo.left_ts = 1;
    jo.right_ts = 1;
    jo.window = WindowSpec{window_ms, window_ms};
    Result<PartitionedJoinPlan> built =
        MakePartitionedJoin(&plan, "pjoin", jo, shards);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    pj = built.value();
    sink = plan.AddOp(std::make_unique<PageLogSink>(shards));
    EXPECT_TRUE(plan.Connect(*lsrc, 0, *pj.left_exchange, 0).ok());
    EXPECT_TRUE(plan.Connect(*rsrc, 0, *pj.right_exchange, 0).ok());
    EXPECT_TRUE(plan.Connect(pj.merge->id(), 0, sink->id(), 0).ok());
  }
};

/// `n` tuples (k = i % keys) arriving at ts = first + i / per_ms, with
/// a watermark punctuation after every `punct_every` tuples (0: none).
std::vector<TimedElement> Feed(int64_t payload, int n, int keys,
                               TimeMs first, int per_ms, int punct_every) {
  std::vector<TimedElement> out;
  for (int i = 0; i < n; ++i) {
    const TimeMs ts = first + i / per_ms;
    out.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(i % keys).Ts(ts).I64(payload).Build()));
    if (punct_every > 0 && (i + 1) % punct_every == 0) {
      out.push_back(TimedElement::OfPunct(
          ts, Punctuation(P("[*,<=" + std::to_string(ts) + ",*]"))));
    }
  }
  return out;
}

TEST(FlushRule, BackloggedShardsEmitOnlyFullPagesBetweenFlushPoints) {
  static constexpr int kShards = 4;
  static constexpr int kPerSide = 2000;
  auto make = [] {
    return std::make_unique<PJoinRig>(
        Feed(1, kPerSide, 50, /*first=*/1, /*per_ms=*/4, 300),
        Feed(2, kPerSide, 50, /*first=*/1, /*per_ms=*/4, 300), kShards,
        /*window_ms=*/100);
  };
  std::unique_ptr<PJoinRig> ref = make();
  ThreadedExecutor reference;
  ASSERT_TRUE(reference.Run(&ref->plan).ok());
  ASSERT_FALSE(ref->sink->rows.empty());

  std::unique_ptr<PJoinRig> rig = make();
  // Shards, merge and sink sit out until both Exchanges have filled
  // their output credit and parked: their wakes are held while
  // `holding`.
  std::set<int64_t> held = {rig->pj.merge->id(), rig->sink->id()};
  for (SymmetricHashJoin* shard : rig->pj.shards) held.insert(shard->id());
  bool holding = false;
  std::set<int64_t> swallowed;
  VirtualClock clock;
  SchedulerOptions sopts;
  sopts.virtual_clock = &clock;
  sopts.pace_sources = true;
  Scheduler sched(sopts);
  sched.SetWakeHook([&](QueryId, int64_t op) {
    if (!holding || held.count(op) == 0) return false;
    swallowed.insert(op);
    return true;
  });
  Result<QueryId> id = sched.Submit(&rig->plan);
  ASSERT_TRUE(id.ok());
  auto drain = [&] {
    while (sched.ReadyCount() > 0) ASSERT_TRUE(sched.StepReadyAt(0).ok());
  };
  // t = 0: no arrival is due yet, so every task runs once and parks.
  drain();
  // Every arrival due: only the sources and the Exchanges run.
  holding = true;
  clock.AdvanceTo(1 + kPerSide / 4);
  sched.ReleaseDue(clock.NowMs());
  drain();
  for (SymmetricHashJoin* shard : rig->pj.shards) {
    ASSERT_EQ(shard->stats().tuples_in, 0u) << shard->name();
  }
  ASSERT_TRUE(
      sched.task_credit_parked(id.value(), rig->pj.left_exchange->id()));
  ASSERT_TRUE(
      sched.task_credit_parked(id.value(), rig->pj.right_exchange->id()));
  holding = false;
  for (int64_t op : swallowed) sched.InjectWake(id.value(), op);
  drain();
  ASSERT_TRUE(sched.Done(id.value()));
  ASSERT_TRUE(sched.Wait(id.value()).ok());

  EXPECT_EQ(rig->sink->rows, ref->sink->rows);
  // A shard draining a backlog (EOS included) never flushes at a park:
  // it runs dry only while an Exchange still holds input, and then
  // defers. So every page it emits is full except the one flushed
  // ahead of each of its punctuations and the last one, at EOS.
  const size_t full = static_cast<size_t>(JoinOptions().output_page_size);
  for (int s = 0; s < kShards; ++s) {
    const SymmetricHashJoin* shard = rig->pj.shards[static_cast<size_t>(s)];
    uint64_t full_pages = 0;
    uint64_t partial_pages = 0;
    for (const PageLogSink::Logged& page : rig->sink->pages) {
      if (page.shard != s) continue;
      EXPECT_LE(page.rows, full);
      ++(page.rows == full ? full_pages : partial_pages);
    }
    EXPECT_GT(full_pages, 0u) << shard->name();
    EXPECT_LE(partial_pages, shard->stats().puncts_out + 1)
        << shard->name();
  }
}

TEST(FlushRule, ResultsReachTheSinkWhileTheFeedPauses) {
  // Each stream sends 100 tuples over 1..25 ms, then nothing until
  // 1000 ms, all inside one 10 s window and without punctuation: no
  // page fills and nothing punctuates, so only the flush at park can
  // deliver the burst's results during the pause.
  constexpr TimeMs kResumeMs = 1000;
  auto feed = [](int64_t payload, bool with_tail) {
    std::vector<TimedElement> out = Feed(payload, 100, 10, 1, 4, 0);
    if (with_tail) {
      for (TimedElement& e : Feed(payload, 20, 10, kResumeMs, 4, 0)) {
        out.push_back(std::move(e));
      }
    }
    return out;
  };
  auto make = [&](bool with_tail) {
    return std::make_unique<PJoinRig>(feed(1, with_tail), feed(2, with_tail),
                                      /*shards=*/2, /*window_ms=*/10000);
  };
  std::unique_ptr<PJoinRig> burst = make(false);
  std::unique_ptr<PJoinRig> whole = make(true);
  ThreadedExecutor ref_burst;
  ASSERT_TRUE(ref_burst.Run(&burst->plan).ok());
  ThreadedExecutor ref_whole;
  ASSERT_TRUE(ref_whole.Run(&whole->plan).ok());
  ASSERT_FALSE(burst->sink->rows.empty());

  std::unique_ptr<PJoinRig> rig = make(true);
  SchedHarnessOptions hopts;
  hopts.seed = 9;
  hopts.sched.pace_sources = true;
  SchedHarness harness(hopts);
  Result<QueryId> id = harness.Submit(&rig->plan);
  ASSERT_TRUE(id.ok());
  // The harness moves the clock to the next arrival only once no task
  // is ready, i.e. once every task has parked.
  while (harness.clock()->NowMs() < kResumeMs) {
    Result<bool> done = harness.DriveFor(1);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    ASSERT_FALSE(done.value());
  }
  EXPECT_EQ(rig->sink->rows, burst->sink->rows);
  ASSERT_TRUE(harness.Drive().ok());
  ASSERT_TRUE(harness.Wait(id.value()).ok());
  EXPECT_EQ(rig->sink->rows, whole->sink->rows);
}

// ---------------------------------------------------------------------------
// Output credit: a task does not start new work while an output edge
// with a live consumer already holds kOutputCreditPages (4) pages — a
// copy fan-out (Duplicate) only while every such edge does.
// ---------------------------------------------------------------------------

/// Passes every tuple on, charging `ms` of virtual time for each.
class SlowPass final : public Operator {
 public:
  explicit SlowPass(double ms) : Operator("slow", 1, 1), ms_(ms) {}
  Status ProcessTuple(int, const Tuple& t) override {
    ctx()->ChargeMs(ms_);
    Emit(0, t);
    return Status::OK();
  }

 private:
  double ms_;
};

TEST(OutputCredit, SlowConsumerBoundsEveryEdge) {
  // 1200 tuples in pages of 8 (150 pages), all due at once, into an
  // operator that is busy for 4 virtual ms per page. Without credit the
  // source, free at every instant, queues nearly all 150 pages at once.
  constexpr int kTuples = 1200;
  constexpr size_t kCreditPages = 4;  // the scheduler's limit
  SchedHarnessOptions hopts;
  hopts.seed = 21;
  hopts.sched.queue.page_size = 8;
  // A slice may overshoot the limit by what it emits: one source batch.
  const size_t slice_pages = static_cast<size_t>(
      hopts.sched.source_batch_per_slice / hopts.sched.queue.page_size);

  LinearPlan ref(VSchema(), VWorkload(kTuples, 17));
  ref.Add(std::make_unique<SlowPass>(0.5));
  CollectorSink* ref_sink = ref.Finish();
  ASSERT_TRUE(ref.RunSync().ok());

  LinearPlan lp(VSchema(), VWorkload(kTuples, 17));
  SlowPass* slow = lp.Add(std::make_unique<SlowPass>(0.5));
  CollectorSink* sink = lp.Finish();
  SchedHarness harness(hopts);
  Result<QueryId> id = harness.Submit(lp.plan());
  ASSERT_TRUE(id.ok());
  Scheduler* sched = harness.scheduler();
  size_t deepest_in = 0;   // source → slow
  size_t deepest_out = 0;  // slow → sink
  for (bool done = false; !done;) {
    Result<bool> stepped = harness.DriveFor(1);
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    done = stepped.value();
    deepest_in = std::max(
        deepest_in, sched->input_queued_pages(id.value(), slow->id(), 0));
    deepest_out = std::max(
        deepest_out, sched->input_queued_pages(id.value(), sink->id(), 0));
  }
  ASSERT_TRUE(harness.Wait(id.value()).ok());
  EXPECT_EQ(Collected(ref_sink), Collected(sink));
  EXPECT_LE(deepest_in, kCreditPages + slice_pages);
  EXPECT_LE(deepest_out, kCreditPages + slice_pages);
  EXPECT_GE(deepest_in, kCreditPages);  // the limit was reached
  EXPECT_GT(sched->stats().credit_parks, 0u);
}

/// Sends every tuple to both outputs but, unlike Duplicate, does not
/// declare them copies: one full output edge stops it.
class Tee final : public Operator {
 public:
  Tee() : Operator("tee", 1, 2) {}
  Status ProcessTuple(int, const Tuple& t) override {
    Emit(0, t);
    Emit(1, t);
    return Status::OK();
  }
};

TEST(OutputCredit, ControlIsServedWhileCreditParked) {
  // source → tee → {held, fb}. The tee parks for credit on the held
  // sink's full edge. The fb sink then pops one page and sends feedback
  // up its own edge; the held edge stays full, so only the control
  // message can get the tee a slice, and that slice must serve it.
  QueryPlan plan;
  auto* source = plan.AddOp(
      std::make_unique<VectorSource>("source", VSchema(), VWorkload(200, 5)));
  auto* dup = plan.AddOp(std::make_unique<Tee>());
  auto* held = plan.AddOp(std::make_unique<CollectorSink>("held"));
  bool send = false;
  auto* fb = plan.AddOp(std::make_unique<CollectorSink>(
      "fb", CollectorSinkOptions{},
      [&](const Tuple&, TimeMs) -> std::vector<FeedbackPunctuation> {
        if (!send) return {};
        send = false;
        return {FeedbackPunctuation::Assumed(P("[*,>=900]"))};
      }));
  ASSERT_TRUE(plan.Connect(*source, 0, *dup, 0).ok());
  ASSERT_TRUE(plan.Connect(*dup, 0, *held, 0).ok());
  ASSERT_TRUE(plan.Connect(*dup, 1, *fb, 0).ok());

  SchedulerOptions sopts;
  sopts.manual = true;
  sopts.queue.page_size = 1;
  Scheduler sched(sopts);
  std::set<int64_t> holding = {held->id(), fb->id()};
  sched.SetWakeHook(
      [&](QueryId, int64_t op) { return holding.count(op) > 0; });
  Result<QueryId> id = sched.Submit(&plan);
  ASSERT_TRUE(id.ok());
  // Ready in op order: source, tee, held, fb. The sinks run once with
  // no input and park; their wakes are swallowed from then on.
  ASSERT_EQ(sched.ReadyCount(), 4u);
  ASSERT_TRUE(sched.StepReadyAt(3).ok());
  ASSERT_TRUE(sched.StepReadyAt(2).ok());
  while (!sched.task_credit_parked(id.value(), dup->id())) {
    ASSERT_GT(sched.ReadyCount(), 0u) << sched.StallReport();
    ASSERT_TRUE(sched.StepReadyAt(0).ok());
  }
  ASSERT_EQ(sched.input_queued_pages(id.value(), held->id(), 0), 4u);

  send = true;
  holding.erase(fb->id());
  sched.InjectWake(id.value(), fb->id());
  ASSERT_EQ(sched.ReadyCount(), 1u);
  ASSERT_TRUE(sched.StepReadyAt(0).ok());  // fb: pop, send feedback
  EXPECT_FALSE(sched.task_credit_parked(id.value(), dup->id()));
  ASSERT_EQ(sched.ReadyCount(), 2u);       // tee (released), fb
  ASSERT_TRUE(sched.StepReadyAt(0).ok());  // tee: serve, park again
  EXPECT_EQ(dup->stats().feedback_received, 1u);
  EXPECT_TRUE(sched.task_credit_parked(id.value(), dup->id()));
  EXPECT_EQ(sched.input_queued_pages(id.value(), held->id(), 0), 4u);
  EXPECT_EQ(held->consumed(), 0u);

  holding.clear();
  sched.InjectWake(id.value(), held->id());
  while (sched.ReadyCount() > 0) ASSERT_TRUE(sched.StepReadyAt(0).ok());
  ASSERT_TRUE(sched.Done(id.value())) << sched.StallReport();
  ASSERT_TRUE(sched.Wait(id.value()).ok());
  EXPECT_EQ(held->consumed(), 200u);
}

/// Drives a manual-mode scheduler FIFO to completion, as RunManual
/// does, calling `observe` after every slice.
void DriveObserved(Scheduler* sched, VirtualClock* clock,
                   const std::function<void()>& observe) {
  while (!sched->AllDone()) {
    if (sched->ReadyCount() > 0) {
      ASSERT_TRUE(sched->StepReadyAt(0).ok());
      observe();
      continue;
    }
    std::optional<TimeMs> due = sched->NextDueMs();
    ASSERT_TRUE(due.has_value()) << sched->StallReport();
    clock->AdvanceTo(*due);
    sched->ReleaseDue(*due);
  }
}

TEST(OutputCredit, CopyFanOutWaitsOnlyWhenEveryOutputIsFull) {
  // source → dup → {free sink, slow (10 virtual ms a tuple) → sink}.
  // A tuple arrives every 1 ms, so the slow branch falls behind at
  // once and its edge passes the credit limit. The dup must keep
  // feeding the free sink: every tuple reaches it at its arrival
  // instant.
  constexpr int kTuples = 200;
  constexpr size_t kCreditPages = 4;  // the scheduler's limit
  QueryPlan plan;
  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "source", VSchema(), VWorkload(kTuples, 7)));
  auto* dup = plan.AddOp(std::make_unique<Duplicate>("dup", 2));
  auto* free_sink = plan.AddOp(std::make_unique<CollectorSink>("free"));
  auto* slow = plan.AddOp(std::make_unique<SlowPass>(10.0));
  auto* slow_sink = plan.AddOp(std::make_unique<CollectorSink>("slow-sink"));
  ASSERT_TRUE(plan.Connect(*source, *dup).ok());
  ASSERT_TRUE(plan.Connect(*dup, 0, *free_sink, 0).ok());
  ASSERT_TRUE(plan.Connect(*dup, 1, *slow, 0).ok());
  ASSERT_TRUE(plan.Connect(*slow, *slow_sink).ok());

  VirtualClock clock;
  SchedulerOptions sopts;
  sopts.virtual_clock = &clock;
  sopts.pace_sources = true;
  sopts.queue.page_size = 1;
  Scheduler sched(sopts);
  Result<QueryId> id = sched.Submit(&plan);
  ASSERT_TRUE(id.ok());
  size_t deepest_slow = 0;
  DriveObserved(&sched, &clock, [&] {
    deepest_slow = std::max(
        deepest_slow, sched.input_queued_pages(id.value(), slow->id(), 0));
  });
  ASSERT_TRUE(sched.Wait(id.value()).ok());

  EXPECT_GT(deepest_slow, kCreditPages);
  ASSERT_EQ(free_sink->collected().size(), static_cast<size_t>(kTuples));
  for (size_t i = 0; i < free_sink->collected().size(); ++i) {
    EXPECT_EQ(free_sink->collected()[i].out_ms, static_cast<TimeMs>(i))
        << "tuple " << i << " waited for the slow branch";
  }
  EXPECT_EQ(slow_sink->consumed(), static_cast<uint64_t>(kTuples));
  EXPECT_GE(clock.NowMs(), 10 * kTuples);
}

TEST(OutputCredit, PartitionerStillParksOnOneFullOutput) {
  // source → exchange(2 shards) → {slow → sink, sink}: the slow shard's
  // edge stays within the credit limit plus one slice's output (one
  // page: a one-tuple input page routes to one shard), which makes the
  // exchange, and with it the fast shard, wait.
  constexpr size_t kCreditPages = 4;  // the scheduler's limit
  QueryPlan plan;
  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "source", VSchema(), VWorkload(400, 9)));
  ExchangeOptions xopts;
  xopts.partition_keys = {0};
  xopts.stage_page_size = 1;
  auto* exchange =
      plan.AddOp(std::make_unique<Exchange>("exchange", 2, xopts));
  auto* slow = plan.AddOp(std::make_unique<SlowPass>(10.0));
  auto* slow_sink = plan.AddOp(std::make_unique<CollectorSink>("slow-sink"));
  auto* fast_sink = plan.AddOp(std::make_unique<CollectorSink>("fast"));
  ASSERT_TRUE(plan.Connect(*source, *exchange).ok());
  ASSERT_TRUE(plan.Connect(*exchange, 0, *slow, 0).ok());
  ASSERT_TRUE(plan.Connect(*slow, *slow_sink).ok());
  ASSERT_TRUE(plan.Connect(*exchange, 1, *fast_sink, 0).ok());

  VirtualClock clock;
  SchedulerOptions sopts;
  sopts.virtual_clock = &clock;
  sopts.pace_sources = true;
  sopts.queue.page_size = 1;
  Scheduler sched(sopts);
  Result<QueryId> id = sched.Submit(&plan);
  ASSERT_TRUE(id.ok());
  size_t deepest_slow = 0;
  DriveObserved(&sched, &clock, [&] {
    deepest_slow = std::max(
        deepest_slow, sched.input_queued_pages(id.value(), slow->id(), 0));
  });
  ASSERT_TRUE(sched.Wait(id.value()).ok());

  EXPECT_GE(deepest_slow, kCreditPages);  // the limit was reached
  EXPECT_LE(deepest_slow, kCreditPages + 1);
  EXPECT_GT(sched.stats().credit_parks, 0u);
  EXPECT_GT(fast_sink->consumed(), 0u);
  EXPECT_EQ(slow_sink->consumed() + fast_sink->consumed(), 400u);
}

/// Routes each tuple by the parity of its second attribute: even to
/// output 0, odd to output 1.
class ParitySplit final : public Operator {
 public:
  ParitySplit() : Operator("split", 1, 2) {}
  Status ProcessTuple(int, const Tuple& t) override {
    Emit(static_cast<int>(t.value(1).int64_value() % 2), t);
    return Status::OK();
  }
};

/// Passes on, one tuple at a time, those whose second attribute is at
/// least `min`: its output page fills across input pages.
class KeepAtLeast final : public Operator {
 public:
  explicit KeepAtLeast(int64_t min) : Operator("keep", 1, 1), min_(min) {}
  Status ProcessTuple(int, const Tuple& t) override {
    if (t.value(1).int64_value() >= min_) Emit(0, t);
    return Status::OK();
  }

 private:
  int64_t min_;
};

TEST(OutputCredit, DeferredFlushGoesOutOnceTheBacklogDrains) {
  // source → split → {held sink, odd → keep(v >= 3) → sink2}. Four odd
  // tuples, then 40 even ones, all due at 1 ms; one more even tuple at
  // 1000 ms. The keep stages 3 rows and runs dry while the split still
  // holds a backlog (its input queued, then credit-parked behind the
  // held sink), so it defers its flush. Once the held sink drains, the
  // split works off its backlog (nothing more for the keep) and parks:
  // the deferred flush must go out then, during the pause, not at EOS.
  std::vector<TimedElement> feed;
  for (int64_t v : {1, 3, 5, 7}) {
    feed.push_back(
        TimedElement::OfTuple(1, TupleBuilder().I64(0).I64(v).Build()));
  }
  for (int64_t v = 0; v < 80; v += 2) {
    feed.push_back(
        TimedElement::OfTuple(1, TupleBuilder().I64(0).I64(v).Build()));
  }
  feed.push_back(
      TimedElement::OfTuple(1000, TupleBuilder().I64(0).I64(80).Build()));
  QueryPlan plan;
  auto* source = plan.AddOp(
      std::make_unique<VectorSource>("source", VSchema(), std::move(feed)));
  auto* split = plan.AddOp(std::make_unique<ParitySplit>());
  auto* held = plan.AddOp(std::make_unique<CollectorSink>("held"));
  auto* keep = plan.AddOp(std::make_unique<KeepAtLeast>(3));
  auto* sink2 = plan.AddOp(std::make_unique<CollectorSink>("sink2"));
  ASSERT_TRUE(plan.Connect(*source, 0, *split, 0).ok());
  ASSERT_TRUE(plan.Connect(*split, 0, *held, 0).ok());
  ASSERT_TRUE(plan.Connect(*split, 1, *keep, 0).ok());
  ASSERT_TRUE(plan.Connect(*keep, *sink2).ok());

  VirtualClock clock;
  SchedulerOptions sopts;
  sopts.virtual_clock = &clock;
  sopts.pace_sources = true;
  sopts.queue.page_size = 4;
  Scheduler sched(sopts);
  bool holding = false;
  bool swallowed = false;
  sched.SetWakeHook([&](QueryId, int64_t op) {
    if (!holding || op != held->id()) return false;
    swallowed = true;
    return true;
  });
  Result<QueryId> id = sched.Submit(&plan);
  ASSERT_TRUE(id.ok());
  auto drain = [&] {
    while (sched.ReadyCount() > 0) ASSERT_TRUE(sched.StepReadyAt(0).ok());
  };
  drain();  // t = 0: nothing is due; every task runs once and parks
  holding = true;
  clock.AdvanceTo(1);
  sched.ReleaseDue(clock.NowMs());
  drain();
  ASSERT_TRUE(sched.task_credit_parked(id.value(), split->id()));
  // The keep has its 3 rows staged and nothing flushed.
  ASSERT_EQ(keep->stats().tuples_out, 3u);
  ASSERT_EQ(sink2->consumed(), 0u);

  holding = false;
  ASSERT_TRUE(swallowed);
  sched.InjectWake(id.value(), held->id());
  drain();  // still t = 1: the split's backlog drains into the held sink
  EXPECT_EQ(held->consumed(), 40u);
  EXPECT_EQ(sink2->consumed(), 3u) << "the keep's rows waited for EOS";
  clock.AdvanceTo(1000);
  sched.ReleaseDue(clock.NowMs());
  drain();
  ASSERT_TRUE(sched.Done(id.value())) << sched.StallReport();
  ASSERT_TRUE(sched.Wait(id.value()).ok());
  EXPECT_EQ(held->consumed(), 41u);
  EXPECT_EQ(sink2->consumed(), 3u);
}

}  // namespace
}  // namespace nstream
