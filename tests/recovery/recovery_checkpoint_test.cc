// Punctuation-aligned checkpoint/recovery under the deterministic
// scheduling harness: barrier injection + per-task alignment +
// quiesce + atomic publish, then seeded crash→recover→compare runs.
// The invariant proved throughout: the union of (output delivered
// before the crash) and (output of the recovered run) is a multiset
// SUPERSET of the crash-free output — nothing is lost, and every
// extra tuple is a replayed duplicate of a legitimate result
// (at-least-once delivery), never a foreign value. Crash points are
// seeded slice counts, including mid-checkpoint crashes (torn tmp
// write / crash before rename) that must fall back to the previous
// complete snapshot.

#include "recovery/recover.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/exchange.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "recovery/checkpoint.h"
#include "recovery/snapshot.h"
#include "testing/sched_harness.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::P;
using testing_util::SchedHarness;
using testing_util::SchedHarnessOptions;

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

// ---- The Table 2 join plan, with punctuation in both streams -------
//
// Two sources ordered by t; after each t-group the source embeds
// grouped punctuation ("no more tuples with this t"), so barriers,
// real punctuation, and tuples all share the queues under test.

SchemaPtr LeftSchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"t", ValueType::kInt64},
                       {"id", ValueType::kInt64}});
}
SchemaPtr RightSchema() {
  return Schema::Make({{"t", ValueType::kInt64},
                       {"id", ValueType::kInt64},
                       {"b", ValueType::kInt64}});
}

std::vector<TimedElement> SideElems(bool left, int n, int per_group) {
  std::vector<TimedElement> out;
  TimeMs at = 0;
  int prev_t = -1;
  for (int i = 0; i < n; ++i) {
    int64_t t = i / per_group;
    if (prev_t >= 0 && t != prev_t) {
      std::string pat = left
                            ? "[*," + std::to_string(prev_t) + ",*]"
                            : "[" + std::to_string(prev_t) + ",*,*]";
      out.push_back(TimedElement::OfPunct(at, Punctuation(P(pat))));
    }
    prev_t = static_cast<int>(t);
    if (left) {
      out.push_back(TimedElement::OfTuple(
          at, TupleBuilder().I64(i % 7).I64(t).I64(i % 3).Build()));
    } else {
      out.push_back(TimedElement::OfTuple(
          at, TupleBuilder().I64(t).I64(i % 3).I64(i % 11).Build()));
    }
    ++at;
  }
  return out;
}

struct Table2Plan {
  std::unique_ptr<QueryPlan> plan;
  VectorSource* left = nullptr;
  VectorSource* right = nullptr;
  SymmetricHashJoin* join = nullptr;  // null when partitioned
  PartitionedJoinPlan pj;             // set when partitioned
  CollectorSink* sink = nullptr;
};

/// `shards` > 0 runs the join partitioned: Exchange → shards → merge.
Table2Plan MakeTable2Plan(int n, int per_group, int shards = 0) {
  Table2Plan out;
  out.plan = std::make_unique<QueryPlan>();
  out.left = out.plan->AddOp(std::make_unique<VectorSource>(
      "A", LeftSchema(), SideElems(true, n, per_group)));
  out.right = out.plan->AddOp(std::make_unique<VectorSource>(
      "B", RightSchema(), SideElems(false, n, per_group)));
  JoinOptions jo;
  jo.left_keys = {1, 2};   // (t, id)
  jo.right_keys = {0, 1};  // (t, id)
  if (shards > 0) {
    Result<PartitionedJoinPlan> pj =
        MakePartitionedJoin(out.plan.get(), "pjoin", jo, shards);
    EXPECT_TRUE(pj.ok()) << pj.status().ToString();
    out.pj = pj.value();
    out.sink = out.plan->AddOp(std::make_unique<CollectorSink>("sink"));
    EXPECT_TRUE(
        out.plan->Connect(*out.left, 0, *out.pj.left_exchange, 0).ok());
    EXPECT_TRUE(
        out.plan->Connect(*out.right, 0, *out.pj.right_exchange, 0).ok());
    EXPECT_TRUE(out.plan->Connect(*out.pj.merge, *out.sink).ok());
    return out;
  }
  out.join = out.plan->AddOp(
      std::make_unique<SymmetricHashJoin>("join", jo));
  out.sink = out.plan->AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(out.plan->Connect(*out.left, 0, *out.join, 0).ok());
  EXPECT_TRUE(out.plan->Connect(*out.right, 0, *out.join, 1).ok());
  EXPECT_TRUE(out.plan->Connect(*out.join, *out.sink).ok());
  return out;
}

std::multiset<std::string> Collected(const CollectorSink* sink) {
  std::multiset<std::string> out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

std::multiset<std::string> CrashFreeReference(int n, int per_group) {
  Table2Plan ref = MakeTable2Plan(n, per_group);
  ThreadedExecutor reference;
  Status st = reference.Run(ref.plan.get());
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collected(ref.sink);
}

/// combined must contain every crash-free tuple at full multiplicity;
/// anything left over must be a duplicate of a crash-free value.
void ExpectAtLeastOnce(const std::multiset<std::string>& crash_free,
                       std::multiset<std::string> combined,
                       const std::string& label) {
  for (const std::string& s : crash_free) {
    auto it = combined.find(s);
    ASSERT_NE(it, combined.end())
        << label << ": result tuple LOST across recovery: " << s;
    combined.erase(it);
  }
  for (const std::string& s : combined) {
    EXPECT_GE(crash_free.count(s), 1u)
        << label << ": foreign tuple fabricated by recovery: " << s;
  }
}

/// Drive until the checkpoint started on `id` reports its result.
Status DriveCheckpointToResult(SchedHarness* h, QueryId id) {
  Scheduler* sched = h->scheduler();
  for (int guard = 0; guard < 1'000'000; ++guard) {
    if (std::optional<Status> res = sched->CheckpointResult(id)) {
      return *res;
    }
    Result<bool> stepped = h->DriveFor(1);
    EXPECT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (!stepped.ok()) return stepped.status();
  }
  return Status::Internal("checkpoint never finished");
}

/// Drive one slice at a time until the join has consumed `tuples`
/// input tuples: a mid-run cut defined by progress rather than by a
/// slice count, which moves whenever page sizes do. Returns true if
/// the plan finished first, like DriveFor.
Result<bool> DriveUntilJoinConsumed(SchedHarness* h, const Table2Plan& t2,
                                    uint64_t tuples) {
  while (t2.join->stats().tuples_in < tuples) {
    NSTREAM_ASSIGN_OR_RETURN(bool done, h->DriveFor(1));
    if (done) return true;
  }
  return h->scheduler()->AllDone();
}

/// Run the recovered half: rebuild the identical plan, restore from
/// `path`, drive to completion, return the recovered output.
std::multiset<std::string> RecoverAndFinish(const std::string& path,
                                            int n, int per_group,
                                            uint64_t seed, int shards = 0) {
  Table2Plan rebuilt = MakeTable2Plan(n, per_group, shards);
  SchedHarnessOptions hopts;
  hopts.seed = seed;
  SchedHarness h(hopts);
  Result<QueryId> id =
      h.scheduler()->SubmitRecovered(rebuilt.plan.get(), path);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return {};
  Status st = h.Drive();
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = h.Wait(id.value());
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collected(rebuilt.sink);
}

// ---------------------------------------------------------------------------
// Barrier protocol
// ---------------------------------------------------------------------------

TEST(Checkpoint, MidRunCheckpointDoesNotPerturbResults) {
  const int kN = 60, kGroup = 5;
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);
  ASSERT_FALSE(expect.empty());

  const std::string path = TempPath("ckpt_quiet.nsp");
  Table2Plan t2 = MakeTable2Plan(kN, kGroup);
  SchedHarnessOptions hopts;
  hopts.seed = 17;
  SchedHarness h(hopts);
  Result<QueryId> id = h.Submit(t2.plan.get());
  ASSERT_TRUE(id.ok());
  // Half of the join's 2 * kN input tuples consumed.
  Result<bool> done = DriveUntilJoinConsumed(&h, t2, kN);
  ASSERT_TRUE(done.ok());
  ASSERT_FALSE(done.value()) << "plan finished before the checkpoint";

  ASSERT_TRUE(h.scheduler()
                  ->StartCheckpoint(id.value(), CheckpointOptions{path})
                  .ok());
  Status ckpt = DriveCheckpointToResult(&h, id.value());
  ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  ASSERT_TRUE(ReadSnapshotFile(path).ok());

  // The checkpointed run still produces EXACTLY the reference output:
  // aligned barriers stall nothing permanently and drop nothing.
  ASSERT_TRUE(h.Drive().ok());
  ASSERT_TRUE(h.Wait(id.value()).ok());
  EXPECT_EQ(Collected(t2.sink), expect);
  std::remove(path.c_str());
}

TEST(Checkpoint, StagedJoinRowsLandBeforeTheBarrier) {
  const int kN = 200, kGroup = 5;
  const uint64_t kSeed = 41;
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);
  const std::string path = TempPath("ckpt_staged.nsp");
  std::multiset<std::string> before_crash;
  {
    Table2Plan t2 = MakeTable2Plan(kN, kGroup);
    SchedHarnessOptions hopts;
    hopts.seed = kSeed;
    SchedHarness h(hopts);
    Result<QueryId> id = h.Submit(t2.plan.get());
    ASSERT_TRUE(id.ok());
    // Results the join produced but has not emitted yet sit in its
    // partly filled staged page.
    auto staged = [&] {
      return t2.join->joined_count() - t2.join->stats().tuples_out;
    };
    while (staged() == 0) {
      Result<bool> done = h.DriveFor(1);
      ASSERT_TRUE(done.ok());
      ASSERT_FALSE(done.value()) << "the join never held staged rows";
    }
    ASSERT_TRUE(h.scheduler()
                    ->StartCheckpoint(id.value(), CheckpointOptions{path})
                    .ok());
    ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());
    // No slice has run since the cut. The join flushed its staged rows
    // ahead of the barrier it forwarded, and the sink, aligned behind
    // that barrier, has consumed every one of them.
    EXPECT_EQ(staged(), 0u);
    EXPECT_EQ(t2.sink->consumed(), t2.join->joined_count());
    // Run on past the cut, then crash.
    ASSERT_TRUE(h.DriveFor(10).ok());
    before_crash = Collected(t2.sink);
  }
  std::multiset<std::string> combined =
      RecoverAndFinish(path, kN, kGroup, kSeed);
  combined.insert(before_crash.begin(), before_crash.end());
  ExpectAtLeastOnce(expect, combined, "staged-page cut");
  std::remove(path.c_str());
}

TEST(Checkpoint, BackToBackCheckpointsAndApiEdges) {
  const std::string path = TempPath("ckpt_edges.nsp");
  // Big enough that the query is still running after the first
  // checkpoint completes — the second checkpoint must find live work.
  Table2Plan t2 = MakeTable2Plan(600, 5);
  SchedHarnessOptions hopts;
  hopts.seed = 23;
  SchedHarness h(hopts);
  Scheduler* sched = h.scheduler();
  Result<QueryId> id = h.Submit(t2.plan.get());
  ASSERT_TRUE(id.ok());

  // Unknown query / empty path.
  EXPECT_EQ(sched->StartCheckpoint(999, CheckpointOptions{path}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      sched->StartCheckpoint(id.value(), CheckpointOptions{}).code(),
      StatusCode::kInvalidArgument);
  // Blocking Checkpoint() needs a pool to make progress.
  EXPECT_EQ(sched->Checkpoint(id.value(), path).code(),
            StatusCode::kFailedPrecondition);
  std::optional<Status> unknown = sched->CheckpointResult(424242);
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->code(), StatusCode::kNotFound);

  ASSERT_TRUE(h.DriveFor(20).ok());
  // Two checkpoints in a row: the second must wait for the first.
  ASSERT_TRUE(
      sched->StartCheckpoint(id.value(), CheckpointOptions{path}).ok());
  EXPECT_EQ(
      sched->StartCheckpoint(id.value(), CheckpointOptions{path}).code(),
      StatusCode::kFailedPrecondition);
  ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());

  // After the first finishes, a second checkpoint succeeds.
  {
    Status st = sched->StartCheckpoint(id.value(), CheckpointOptions{path});
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());

  // After completion, checkpointing is a clean precondition failure.
  ASSERT_TRUE(h.Drive().ok());
  ASSERT_TRUE(h.Wait(id.value()).ok());
  EXPECT_EQ(
      sched->StartCheckpoint(id.value(), CheckpointOptions{path}).code(),
      StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash → recover → compare
// ---------------------------------------------------------------------------

TEST(CrashRecovery, CrashAfterCheckpointRecoversEverything) {
  const int kN = 600, kGroup = 5;  // long run: checkpoint lands mid-flight
  const std::string path = TempPath("ckpt_crash_basic.nsp");
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);

  std::multiset<std::string> prefix;
  {
    Table2Plan t2 = MakeTable2Plan(kN, kGroup);
    SchedHarnessOptions hopts;
    hopts.seed = 41;
    SchedHarness h(hopts);
    Result<QueryId> id = h.Submit(t2.plan.get());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(h.DriveFor(40).ok());
    {
      Status st = h.scheduler()->StartCheckpoint(id.value(),
                                                 CheckpointOptions{path});
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());
    // Keep running past the checkpoint, then crash: everything the
    // sink saw in this window becomes potential duplicates.
    ASSERT_TRUE(h.DriveFor(25).ok());
    prefix = Collected(t2.sink);
  }  // harness + plan destroyed with the query mid-flight: the crash

  std::multiset<std::string> recovered =
      RecoverAndFinish(path, kN, kGroup, /*seed=*/42);
  std::multiset<std::string> combined = prefix;
  combined.insert(recovered.begin(), recovered.end());
  ExpectAtLeastOnce(expect, combined, "basic crash");
  std::remove(path.c_str());
}

TEST(CrashRecovery, CheckpointStartedWhileCreditParkedCompletes) {
  // The shards sit out until a source and its Exchange have run out of
  // output credit behind them; the checkpoint starts right then. The
  // limit is lifted while the barriers align, so it completes, and its
  // snapshot recovers like any other.
  const int kN = 600, kGroup = 5, kShards = 2;
  const std::string path = TempPath("ckpt_credit_parked.nsp");
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);

  std::multiset<std::string> prefix;
  {
    Table2Plan t2 = MakeTable2Plan(kN, kGroup, kShards);
    SchedHarnessOptions hopts;
    hopts.seed = 71;
    hopts.sched.queue.page_size = 8;
    SchedHarness h(hopts);
    Scheduler* sched = h.scheduler();
    std::set<int64_t> held = {t2.pj.merge->id(), t2.sink->id()};
    for (SymmetricHashJoin* shard : t2.pj.shards) held.insert(shard->id());
    bool holding = true;
    std::vector<int64_t> swallowed;
    sched->SetWakeHook([&](QueryId, int64_t op) {
      if (!holding || held.count(op) == 0) return false;
      swallowed.push_back(op);
      return true;
    });
    Result<QueryId> id = h.Submit(t2.plan.get());
    ASSERT_TRUE(id.ok());
    auto credit_parked = [&](const Operator* op) {
      return sched->task_credit_parked(id.value(), op->id());
    };
    while (!credit_parked(t2.left) ||
           !credit_parked(t2.pj.left_exchange)) {
      Result<bool> stepped = h.DriveFor(1);
      ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
      ASSERT_FALSE(stepped.value());
    }
    ASSERT_TRUE(
        sched->StartCheckpoint(id.value(), CheckpointOptions{path}).ok());
    EXPECT_FALSE(credit_parked(t2.left));
    EXPECT_FALSE(credit_parked(t2.pj.left_exchange));
    holding = false;
    for (int64_t op : swallowed) sched->InjectWake(id.value(), op);
    Status ckpt = DriveCheckpointToResult(&h, id.value());
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    ASSERT_TRUE(h.DriveFor(25).ok());
    prefix = Collected(t2.sink);
  }  // the crash

  std::multiset<std::string> recovered =
      RecoverAndFinish(path, kN, kGroup, /*seed=*/72, kShards);
  std::multiset<std::string> combined = prefix;
  combined.insert(recovered.begin(), recovered.end());
  ExpectAtLeastOnce(expect, combined, "credit-parked checkpoint");
  std::remove(path.c_str());
}

TEST(CrashRecovery, MidCheckpointCrashFallsBackToPreviousSnapshot) {
  const int kN = 600, kGroup = 5;  // both checkpoints must land mid-flight
  const std::string path = TempPath("ckpt_crash_mid.nsp");
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);

  for (CheckpointCrashMode mode : {CheckpointCrashMode::kMidWrite,
                                   CheckpointCrashMode::kBeforeRename}) {
    SCOPED_TRACE(static_cast<int>(mode));
    std::multiset<std::string> prefix;
    {
      Table2Plan t2 = MakeTable2Plan(kN, kGroup);
      SchedHarnessOptions hopts;
      hopts.seed = 59;
      SchedHarness h(hopts);
      Result<QueryId> id = h.Submit(t2.plan.get());
      ASSERT_TRUE(id.ok());

      // A good checkpoint early on…
      ASSERT_TRUE(h.DriveFor(20).ok());
      ASSERT_TRUE(h.scheduler()
                      ->StartCheckpoint(id.value(),
                                        CheckpointOptions{path})
                      .ok());
      ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());
      Result<std::string> good = ReadSnapshotFile(path);
      ASSERT_TRUE(good.ok());

      // …then a later checkpoint whose write crashes. The failure is
      // reported, and `path` still names the good snapshot.
      ASSERT_TRUE(h.DriveFor(30).ok());
      ASSERT_TRUE(h.scheduler()
                      ->StartCheckpoint(id.value(),
                                        CheckpointOptions{path, mode})
                      .ok());
      Status crashed = DriveCheckpointToResult(&h, id.value());
      ASSERT_FALSE(crashed.ok());
      EXPECT_EQ(crashed.code(), StatusCode::kCancelled);
      Result<std::string> after = ReadSnapshotFile(path);
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(after.value(), good.value())
          << "crashed checkpoint clobbered the published snapshot";

      // The query itself is unharmed by the failed checkpoint; run a
      // little longer and crash the engine.
      ASSERT_TRUE(h.DriveFor(15).ok());
      prefix = Collected(t2.sink);
    }

    std::multiset<std::string> recovered = RecoverAndFinish(
        path, kN, kGroup, /*seed=*/60 + static_cast<uint64_t>(mode));
    std::multiset<std::string> combined = prefix;
    combined.insert(recovered.begin(), recovered.end());
    ExpectAtLeastOnce(expect, combined, "mid-checkpoint crash");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
}

TEST(CrashRecovery, RandomizedSeededCrashSweep) {
  const int kN = 80, kGroup = 5;
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);
  const CheckpointCrashMode kModes[] = {
      CheckpointCrashMode::kNone, CheckpointCrashMode::kMidWrite,
      CheckpointCrashMode::kBeforeRename};

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    const uint64_t k1 = 10 + rng.NextBounded(110);
    const uint64_t k2 = rng.NextBounded(80);
    const CheckpointCrashMode mode = kModes[seed % 3];
    const std::string path =
        TempPath("ckpt_sweep_" + std::to_string(seed) + ".nsp");

    std::multiset<std::string> prefix;
    bool have_snapshot = false;
    {
      Table2Plan t2 = MakeTable2Plan(kN, kGroup);
      SchedHarnessOptions hopts;
      hopts.seed = seed;
      hopts.wake_defer_prob = 0.2;  // wake reordering in the mix
      SchedHarness h(hopts);
      Result<QueryId> id = h.Submit(t2.plan.get());
      ASSERT_TRUE(id.ok());

      // An early complete snapshot: the crashing modes fall back to
      // it, and it also covers seeds whose k1 lands past completion.
      Result<bool> early = h.DriveFor(8);
      ASSERT_TRUE(early.ok());
      ASSERT_FALSE(early.value()) << "plan finished in 8 slices";
      ASSERT_TRUE(h.scheduler()
                      ->StartCheckpoint(id.value(),
                                        CheckpointOptions{path})
                      .ok());
      ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());
      have_snapshot = true;

      Result<bool> done = h.DriveFor(k1);
      ASSERT_TRUE(done.ok());
      if (!done.value()) {
        Status st = h.scheduler()->StartCheckpoint(
            id.value(), CheckpointOptions{path, mode});
        ASSERT_TRUE(st.ok()) << st.ToString();
        Status ckpt = DriveCheckpointToResult(&h, id.value());
        if (mode == CheckpointCrashMode::kNone) {
          ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
          have_snapshot = true;
        } else {
          ASSERT_FALSE(ckpt.ok());
        }
        ASSERT_TRUE(h.DriveFor(k2).ok());
      }
      prefix = Collected(t2.sink);
    }

    ASSERT_TRUE(have_snapshot);
    std::multiset<std::string> recovered =
        RecoverAndFinish(path, kN, kGroup, seed + 1000);
    std::multiset<std::string> combined = prefix;
    combined.insert(recovered.begin(), recovered.end());
    ExpectAtLeastOnce(expect, combined,
                      "sweep seed " + std::to_string(seed));
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
}

TEST(CrashRecovery, CrashAtEveryPunctuationSweep) {
  // Checkpoint + crash aligned at EVERY punctuation arrival of the
  // Table 2 plan: for each i, drive until the join has consumed i
  // punctuations, checkpoint there, crash immediately, recover, and
  // prove nothing was lost.
  const int kN = 40, kGroup = 5;
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);

  int punct_points = 0;
  for (int i = 1;; ++i) {
    SCOPED_TRACE("punct=" + std::to_string(i));
    const std::string path =
        TempPath("ckpt_punct_" + std::to_string(i) + ".nsp");
    Table2Plan t2 = MakeTable2Plan(kN, kGroup);
    SchedHarnessOptions hopts;
    hopts.seed = 100 + static_cast<uint64_t>(i);
    SchedHarness h(hopts);
    Result<QueryId> id = h.Submit(t2.plan.get());
    ASSERT_TRUE(id.ok());

    // Step until the i-th punctuation reaches the join.
    bool reached = false;
    while (t2.join->stats().puncts_in <
           static_cast<uint64_t>(i)) {
      Result<bool> stepped = h.DriveFor(1);
      ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
      if (stepped.value()) break;  // plan finished first
    }
    reached =
        t2.join->stats().puncts_in >= static_cast<uint64_t>(i);
    if (!reached || h.scheduler()->AllDone()) {
      break;  // ran out of punctuation points
    }
    ++punct_points;

    ASSERT_TRUE(h.scheduler()
                    ->StartCheckpoint(id.value(),
                                      CheckpointOptions{path})
                    .ok());
    ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());
    std::multiset<std::string> prefix = Collected(t2.sink);
    // Crash right at the checkpoint: zero extra slices.

    std::multiset<std::string> recovered = RecoverAndFinish(
        path, kN, kGroup, 2000 + static_cast<uint64_t>(i));
    std::multiset<std::string> combined = prefix;
    combined.insert(recovered.begin(), recovered.end());
    ExpectAtLeastOnce(expect, combined,
                      "punctuation point " + std::to_string(i));
    std::remove(path.c_str());
  }
  // The workload embeds punctuation after every t-group on both
  // sides; the sweep must actually have exercised a healthy number.
  EXPECT_GE(punct_points, 8);
}

// ---------------------------------------------------------------------------
// Pool-mode (threaded) checkpoint + recovery
// ---------------------------------------------------------------------------

TEST(CrashRecovery, PooledCheckpointAndRecoveredResubmit) {
  const int kN = 4000, kGroup = 5;
  const std::string path = TempPath("ckpt_pool.nsp");
  std::multiset<std::string> expect = CrashFreeReference(kN, kGroup);

  Table2Plan t2 = MakeTable2Plan(kN, kGroup);
  PooledExecutorOptions opts;
  opts.pool_size = 2;
  PooledExecutor exec(opts);
  Result<QueryId> id = exec.Submit(t2.plan.get());
  ASSERT_TRUE(id.ok());
  Status ckpt = exec.Checkpoint(id.value(), path);
  // The plan may have drained before the barrier landed; that narrow
  // race is a clean precondition error, not a hang or corruption.
  if (!ckpt.ok()) {
    ASSERT_EQ(ckpt.code(), StatusCode::kFailedPrecondition)
        << ckpt.ToString();
    ASSERT_TRUE(exec.Wait(id.value()).ok());
    GTEST_SKIP() << "plan finished before the checkpoint; nothing to "
                    "recover";
  }
  ASSERT_TRUE(exec.Wait(id.value()).ok());
  EXPECT_EQ(Collected(t2.sink), expect);

  // Recover the snapshot on a FRESH pool: the recovered run replays
  // the post-checkpoint suffix; all of its output must be legitimate.
  Table2Plan rebuilt = MakeTable2Plan(kN, kGroup);
  PooledExecutor exec2(opts);
  Result<QueryId> rid =
      exec2.SubmitRecovered(rebuilt.plan.get(), path);
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  ASSERT_TRUE(exec2.Wait(rid.value()).ok());
  std::multiset<std::string> recovered = Collected(rebuilt.sink);
  std::multiset<std::string> combined = Collected(t2.sink);
  combined.insert(recovered.begin(), recovered.end());
  ExpectAtLeastOnce(expect, combined, "pooled recovery");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Restore validation
// ---------------------------------------------------------------------------

TEST(Recovery, StructurallyDifferentPlanIsRejected) {
  const int kN = 40, kGroup = 5;
  const std::string path = TempPath("ckpt_fingerprint.nsp");
  {
    Table2Plan t2 = MakeTable2Plan(kN, kGroup);
    SchedHarnessOptions hopts;
    hopts.seed = 7;
    SchedHarness h(hopts);
    Result<QueryId> id = h.Submit(t2.plan.get());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(DriveUntilJoinConsumed(&h, t2, kN).ok());
    ASSERT_TRUE(h.scheduler()
                    ->StartCheckpoint(id.value(),
                                      CheckpointOptions{path})
                    .ok());
    ASSERT_TRUE(DriveCheckpointToResult(&h, id.value()).ok());
  }

  // A plan with a different operator set must be refused by the
  // fingerprint check, not silently half-restored.
  testing_util::LinearPlan other(
      Schema::Make({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
      testing_util::AtMillis({TupleBuilder().I64(1).I64(2).Build()}));
  other.Finish();
  SchedHarness h2;
  Result<QueryId> rid =
      h2.scheduler()->SubmitRecovered(other.plan(), path);
  ASSERT_FALSE(rid.ok());
  EXPECT_EQ(rid.status().code(), StatusCode::kInvalidArgument);

  // Missing snapshot file: clean NotFound.
  Table2Plan rebuilt = MakeTable2Plan(kN, kGroup);
  SchedHarness h3;
  Result<QueryId> missing = h3.scheduler()->SubmitRecovered(
      rebuilt.plan.get(), path + ".nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nstream
