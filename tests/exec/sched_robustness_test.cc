// Scheduler robustness: the stall watchdog (Wait deadline → state
// dump instead of an eternal hang, with exact edge depths), error
// isolation (a poisoned plan on a shared pool kills only its own
// tasks, even while its producer is parked for output credit), and
// checkpoint aborts when a query fails mid-alignment.

#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/runtime.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "recovery/checkpoint.h"
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

/// Consumes everything — including EOS — and forwards nothing. The
/// downstream never finishes: a deliberately wedged plan.
class BlackHole final : public Operator {
 public:
  BlackHole() : Operator("blackhole", 1, 1) {}
  Status ProcessTuple(int, const Tuple&) override {
    return Status::OK();
  }
  Status ProcessPage(int, Page&&, TimeMs*) override {
    return Status::OK();  // swallow tuples, punctuation, AND EOS
  }
};

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

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

TEST(StallWatchdog, WedgedPlanReportsInsteadOfHangingForever) {
  LinearPlan lp(VSchema(), VWorkload(50, 3));
  lp.Add(std::make_unique<BlackHole>());
  lp.Finish();
  Scheduler sched(SchedulerOptions{});
  Result<QueryId> id = sched.Submit(lp.plan());
  ASSERT_TRUE(id.ok());

  Status st = sched.Wait(id.value(), /*timeout_ms=*/300);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // The report names the wedged operator, its state, and the queue
  // depths — the data needed to diagnose the hang.
  EXPECT_NE(st.message().find("still running"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("blackhole"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("WAITING"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("edge"), std::string::npos)
      << st.ToString();

  // The report is also available on demand.
  std::string report = sched.StallReport();
  EXPECT_NE(report.find("query"), std::string::npos);
  EXPECT_NE(report.find("sink"), std::string::npos);
}

TEST(StallWatchdog, HealthyPlanFinishesWellWithinTheDeadline) {
  LinearPlan lp(VSchema(), VWorkload(300, 5));
  lp.Add(Select::FromPattern("sel", P("[*,>=100]")));
  CollectorSink* sink = lp.Finish();
  Scheduler sched(SchedulerOptions{});
  Result<QueryId> id = sched.Submit(lp.plan());
  ASSERT_TRUE(id.ok());
  Status st = sched.Wait(id.value(), /*timeout_ms=*/30'000);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(sink->consumed(), 0u);
}

TEST(StallWatchdog, ManualHarnessStallCarriesTheReport) {
  LinearPlan lp(VSchema(), VWorkload(50, 7));
  lp.Add(std::make_unique<BlackHole>());
  lp.Finish();
  SchedHarnessOptions hopts;
  hopts.seed = 99;
  SchedHarness h(hopts);
  ASSERT_TRUE(h.Submit(lp.plan()).ok());
  Status st = h.Drive();
  ASSERT_FALSE(st.ok());
  // Seed for replay + the scheduler's task dump, in one message.
  EXPECT_NE(st.message().find("seed=99"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("blackhole"), std::string::npos)
      << st.ToString();
}

TEST(StallWatchdog, RecoveredQueueDepthIsExact) {
  // A snapshot whose source → sink edge holds three pages (page size
  // 4, twelve tuples), written straight from a runtime.
  const std::string path = ::testing::TempDir() + "/depth.nsp";
  DataQueueOptions qopts;
  qopts.page_size = 4;
  {
    LinearPlan written(VSchema(), {});
    written.Finish();
    ASSERT_TRUE(written.plan()->Finalize().ok());
    Result<std::unique_ptr<PlanRuntime>> rt =
        PlanRuntime::Create(written.plan(), qopts);
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    DataQueue* edge = rt.value()->connections()[0]->data.get();
    for (int i = 0; i < 12; ++i) {
      edge->PushTuple(TupleBuilder().I64(i).I64(i).Build());
    }
    ASSERT_TRUE(CheckpointCoordinator::WriteSnapshot(
                    written.plan(), rt.value().get(), CheckpointOptions{path})
                    .ok());
  }

  LinearPlan recovered(VSchema(), {});
  CollectorSink* sink = recovered.Finish();
  SchedulerOptions sopts;
  sopts.manual = true;
  sopts.queue = qopts;
  Scheduler sched(sopts);
  Result<QueryId> id = sched.SubmitRecovered(recovered.plan(), path);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(sched.input_queued_pages(id.value(), sink->id(), 0), 3u);
  EXPECT_NE(sched.StallReport().find("data_pages=3 "), std::string::npos)
      << sched.StallReport();

  // Ready in submit order: the source, then the sink. One sink slice
  // pops one restored page.
  ASSERT_EQ(sched.ReadyCount(), 2u);
  ASSERT_TRUE(sched.StepReadyAt(1).ok());
  EXPECT_EQ(sink->consumed(), 4u);
  EXPECT_EQ(sched.input_queued_pages(id.value(), sink->id(), 0), 2u);
  EXPECT_NE(sched.StallReport().find("data_pages=2 "), std::string::npos)
      << sched.StallReport();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Error isolation across queries sharing one pool
// ---------------------------------------------------------------------------

TEST(ErrorIsolation, PoisonedPlanDoesNotStallOrCorruptSibling) {
  Scheduler sched(SchedulerOptions{});

  LinearPlan healthy(VSchema(), VWorkload(800, 11));
  healthy.Add(Select::FromPattern("sel", P("[*,>=300]")));
  CollectorSink* healthy_sink = healthy.Finish();

  LinearPlan poisoned(VSchema(), VWorkload(800, 12));
  poisoned.Add(std::make_unique<FailingOp>(/*fail_after=*/25));
  poisoned.Finish();

  Result<QueryId> hid = sched.Submit(healthy.plan());
  Result<QueryId> pid = sched.Submit(poisoned.plan());
  ASSERT_TRUE(hid.ok());
  ASSERT_TRUE(pid.ok());

  Status pst = sched.Wait(pid.value());
  ASSERT_FALSE(pst.ok());
  EXPECT_NE(pst.message().find("injected fault"), std::string::npos);

  // The sibling finishes (bounded wait: a stall here is the
  // regression) and produces exactly the reference output.
  Status hst = sched.Wait(hid.value(), /*timeout_ms=*/60'000);
  ASSERT_TRUE(hst.ok()) << hst.ToString();
  LinearPlan ref(VSchema(), VWorkload(800, 11));
  ref.Add(Select::FromPattern("sel", P("[*,>=300]")));
  CollectorSink* ref_sink = ref.Finish();
  ASSERT_TRUE(ref.RunSync().ok());
  EXPECT_EQ(Collected(ref_sink), Collected(healthy_sink));

  // Only the poisoned query's tasks died early; all tasks of both
  // queries are killed by now (6 total: 3 per linear plan).
  EXPECT_TRUE(sched.AllDone());
  EXPECT_EQ(sched.stats().tasks_killed, 6u);
}

/// Fails on its first tuple, once the test opens the gate. Until then
/// it holds its worker, so its input fills up behind it.
class GatedFailer final : public Operator {
 public:
  explicit GatedFailer(const std::atomic<bool>* gate)
      : Operator("failer", 1, 1), gate_(gate) {}
  Status ProcessTuple(int, const Tuple&) override {
    while (!gate_->load()) std::this_thread::yield();
    return Status::Internal("failer: injected fault");
  }

 private:
  const std::atomic<bool>* gate_;
};

TEST(ErrorIsolation, ConsumerFailureWhileProducerIsCreditParked) {
  // The source runs out of output credit behind the held failer; the
  // failure must still end the query with its own error, not a stall.
  std::atomic<bool> gate{false};
  LinearPlan lp(VSchema(), VWorkload(4000, 41));
  lp.Add(std::make_unique<GatedFailer>(&gate));
  lp.Finish();
  SchedulerOptions sopts;
  sopts.queue.page_size = 16;
  Scheduler sched(sopts);
  Result<QueryId> id = sched.Submit(lp.plan());
  ASSERT_TRUE(id.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!sched.task_credit_parked(id.value(), lp.source()->id())) {
    if (std::chrono::steady_clock::now() > deadline) {
      gate.store(true);  // let the worker go before failing the test
      FAIL() << "source never parked for credit\n" << sched.StallReport();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sched.stats().credit_parks, 1u);
  EXPECT_LT(lp.source()->position(), 4000u);
  gate.store(true);

  Status st = sched.Wait(id.value(), /*timeout_ms=*/30'000);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find("injected fault"), std::string::npos);
}

TEST(ErrorIsolation, QueryFailureMidCheckpointAbortsTheCheckpoint) {
  // Deterministic manual-mode version: the failer must drain its
  // pre-barrier pages to align, and faults while doing so — the
  // checkpoint MUST abort with the query's error, and the healthy
  // sibling on the same scheduler must finish untouched.
  SchedHarnessOptions hopts;
  hopts.seed = 13;
  hopts.sched.queue.page_size = 4;  // pre-barrier pages exist early
  SchedHarness h(hopts);
  Scheduler* sched = h.scheduler();

  LinearPlan healthy(VSchema(), VWorkload(200, 21));
  healthy.Add(Select::FromPattern("sel", P("[*,>=500]")));
  CollectorSink* healthy_sink = healthy.Finish();

  LinearPlan poisoned(VSchema(), VWorkload(200, 22));
  poisoned.Add(std::make_unique<FailingOp>(/*fail_after=*/5));
  poisoned.Finish();

  Result<QueryId> hid = h.Submit(healthy.plan());
  Result<QueryId> pid = h.Submit(poisoned.plan());
  ASSERT_TRUE(hid.ok());
  ASSERT_TRUE(pid.ok());

  // Let the poisoned source stage pages, then checkpoint it: the
  // barrier will sit BEHIND the poison pill in the failer's input
  // queue, so alignment must trip the fault. Stopping at the FIRST
  // slice that produced source output guarantees the failer has not
  // consumed anything yet.
  while (poisoned.source()->position() == 0) {
    Result<bool> stepped = h.DriveFor(1);
    ASSERT_TRUE(stepped.ok());
    ASSERT_FALSE(stepped.value());
  }
  ASSERT_TRUE(
      sched
          ->StartCheckpoint(pid.value(),
                            CheckpointOptions{
                                ::testing::TempDir() + "/abort.nsp"})
          .ok());

  // Drive everything to completion; the poisoned query fails along
  // the way and takes its pending checkpoint down with it.
  ASSERT_TRUE(h.Drive().ok());
  std::optional<Status> ckpt = sched->CheckpointResult(pid.value());
  ASSERT_TRUE(ckpt.has_value()) << "checkpoint result never surfaced";
  ASSERT_FALSE(ckpt->ok());
  EXPECT_NE(ckpt->ToString().find("injected fault"), std::string::npos)
      << ckpt->ToString();

  Status pst = h.Wait(pid.value());
  ASSERT_FALSE(pst.ok());
  Status hst = h.Wait(hid.value());
  ASSERT_TRUE(hst.ok()) << hst.ToString();

  LinearPlan ref(VSchema(), VWorkload(200, 21));
  ref.Add(Select::FromPattern("sel", P("[*,>=500]")));
  CollectorSink* ref_sink = ref.Finish();
  ASSERT_TRUE(ref.RunSync().ok());
  EXPECT_EQ(Collected(ref_sink), Collected(healthy_sink));
}

TEST(ErrorIsolation, CheckpointOfHealthyQuerySurvivesSiblingFailure) {
  // The inverse: the FAILING query is the bystander; the healthy
  // query's checkpoint must complete normally.
  const std::string path = ::testing::TempDir() + "/sibling.nsp";
  SchedHarnessOptions hopts;
  hopts.seed = 29;
  SchedHarness h(hopts);

  LinearPlan healthy(VSchema(), VWorkload(400, 31));
  healthy.Add(Select::FromPattern("sel", P("[*,>=100]")));
  healthy.Finish();

  LinearPlan poisoned(VSchema(), VWorkload(400, 32));
  poisoned.Add(std::make_unique<FailingOp>(/*fail_after=*/3));
  poisoned.Finish();

  Result<QueryId> hid = h.Submit(healthy.plan());
  Result<QueryId> pid = h.Submit(poisoned.plan());
  ASSERT_TRUE(hid.ok());
  ASSERT_TRUE(pid.ok());

  ASSERT_TRUE(h.DriveFor(10).ok());
  ASSERT_TRUE(h.scheduler()
                  ->StartCheckpoint(hid.value(), CheckpointOptions{path})
                  .ok());
  ASSERT_TRUE(h.Drive().ok());
  std::optional<Status> ckpt =
      h.scheduler()->CheckpointResult(hid.value());
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_TRUE(ckpt->ok()) << ckpt->ToString();
  EXPECT_FALSE(h.Wait(pid.value()).ok());
  EXPECT_TRUE(h.Wait(hid.value()).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nstream
