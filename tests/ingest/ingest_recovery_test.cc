// Checkpoint/recovery across the ingest edge. With ONE producer (the
// N = 1 case of ingest_mux_trace_test's fan-in): run a producer's
// tagged frames through IngestSource with trace recording on,
// checkpoint mid-stream under the deterministic scheduling harness,
// crash, then rebuild the plan and SubmitRecovered over the REPLAYED
// trace. The restored acknowledged offset makes the source skip
// exactly the frames it had admitted at the barrier; the recovery
// layer's at-least-once invariant must hold: union(pre-crash output,
// recovered output) ⊇ the crash-free multiset, with any surplus being
// duplicates. With two producers: a claim one producer made before the
// cut is held in the snapshot and passed on once the other makes it.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "ingest/ingest_source.h"
#include "ingest/trace.h"
#include "ingest_test_util.h"
#include "recovery/checkpoint.h"
#include "recovery/snapshot.h"
#include "testing/sched_harness.h"

namespace nstream {
namespace {

using testing_util::CheckedPlan;
using testing_util::EncodeIngestStream;
using testing_util::kTestProducer;
using testing_util::MakeCheckedPlan;
using testing_util::MakeIngestPlan;
using testing_util::PrefilledConduit;
using testing_util::RandomIngestTuples;
using testing_util::SchedHarness;
using testing_util::SchedHarnessOptions;
using testing_util::TupleStrings;

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

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

// Snapshot round-trip of the IngestSource's own state, standalone.
TEST(IngestRecovery, SnapshotRestoreRoundTrip) {
  FrameConduit conduit;
  IngestSource src("ingest", testing_util::IngestSchema(), &conduit);
  ASSERT_TRUE(
      src.ProcessFeedback(0, testing_util::FB("~[*,*,>=900]")).ok());

  SnapshotWriter w;
  ASSERT_TRUE(src.SnapshotState(&w).ok());
  const std::string bytes = w.buffer();

  FrameConduit conduit2;
  IngestSource back("ingest", testing_util::IngestSchema(), &conduit2);
  SnapshotReader r(bytes);
  ASSERT_TRUE(back.RestoreState(&r).ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(back.admitted_frames(), src.admitted_frames());
  EXPECT_EQ(back.admission_guards().size(), 1);
  EXPECT_EQ(back.admission_guards().patterns()[0].ToString(),
            src.admission_guards().patterns()[0].ToString());

  // Determinism: snapshot(restore(snapshot)) == snapshot.
  SnapshotWriter w2;
  ASSERT_TRUE(back.SnapshotState(&w2).ok());
  EXPECT_EQ(w2.buffer(), bytes);
}

// The reader refuses producer ports that cannot come from a closed
// set of two: a duplicate, one out of range, or a combiner section for
// another port count.
TEST(IngestRecovery, SnapshotRejectsBadProducerPorts) {
  auto snapshot = [](std::vector<int64_t> ports, int combiner_ports) {
    SnapshotWriter w;
    w.WriteU32(0);      // Operator: no inputs
    w.WriteBool(false);  // not finished
    w.WriteU64(0);      // admitted frames
    w.WriteI64(1);      // next tuple id
    w.WriteGuardSet(GuardSet());
    w.WriteU64(ports.size());
    for (size_t i = 0; i < ports.size(); ++i) {
      w.WriteU64(i + 1);   // producer id
      w.WriteU64(0);       // admitted
      w.WriteBool(false);  // EOS seen
      w.WriteBool(false);  // quarantined
      w.WriteI64(ports[i]);
    }
    PunctuationCombiner(combiner_ports).Write(&w);
    return w.Release();
  };
  auto restore = [](const std::string& bytes) {
    FrameConduit conduit;
    IngestSourceOptions opts;
    opts.expected_eos_producers = 2;
    IngestSource src("ingest", testing_util::IngestSchema(), &conduit,
                     opts);
    SnapshotReader r(bytes);
    return src.RestoreState(&r);
  };
  EXPECT_TRUE(restore(snapshot({0, 1}, 2)).ok());
  EXPECT_TRUE(restore(snapshot({1, -1}, 2)).ok());
  EXPECT_FALSE(restore(snapshot({0, 0}, 2)).ok());
  EXPECT_FALSE(restore(snapshot({0, 2}, 2)).ok());
  EXPECT_FALSE(restore(snapshot({0, -2}, 2)).ok());
  EXPECT_FALSE(restore(snapshot({0, 1}, 3)).ok());
}

TEST(IngestRecovery, CheckpointCrashReplayFromTrace) {
  const int kN = 400;
  std::vector<Tuple> tuples = RandomIngestTuples(kN, 71);
  const std::string stream = EncodeIngestStream(tuples, 4, 40);
  const std::multiset<std::string> expect = TupleStrings(tuples);

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string ckpt =
        TempPath("ingest_ckpt_" + std::to_string(seed) + ".nsp");
    const std::string trace =
        TempPath("ingest_trace_" + std::to_string(seed) + ".bin");

    std::multiset<std::string> prefix;
    uint64_t acked_at_ckpt = 0;
    uint64_t acked_at_crash = 0;
    {
      auto conduit = PrefilledConduit(stream);
      IngestSourceOptions opts;
      opts.trace_path = trace;
      opts.max_frames_per_produce = 2;  // stretch ingest across slices
      auto p = MakeIngestPlan(conduit.get(), opts);
      SchedHarnessOptions hopts;
      hopts.seed = seed;
      SchedHarness h(hopts);
      Result<QueryId> id = h.Submit(p.plan.get());
      ASSERT_TRUE(id.ok()) << id.status().ToString();

      // Drive partway in, checkpoint mid-ingestion.
      ASSERT_TRUE(h.DriveFor(6 + seed * 3).ok());
      ASSERT_TRUE(h.scheduler()
                      ->StartCheckpoint(id.value(), CheckpointOptions{ckpt})
                      .ok());
      for (int guard = 0;; ++guard) {
        ASSERT_LT(guard, 1'000'000) << "checkpoint never finished";
        if (auto res = h.scheduler()->CheckpointResult(id.value())) {
          ASSERT_TRUE(res->ok()) << res->ToString();
          break;
        }
        Result<bool> stepped = h.DriveFor(1);
        ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
      }
      acked_at_ckpt = p.source->acknowledged_offset(kTestProducer);

      // Keep running until the source has admitted the WHOLE stream
      // (the trace is then complete), then crash mid-plan.
      while (!p.source->finished() && !h.scheduler()->AllDone()) {
        Result<bool> stepped = h.DriveFor(1);
        ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
        if (stepped.value()) break;
      }
      acked_at_crash = p.source->acknowledged_offset(kTestProducer);
      ASSERT_GE(acked_at_crash, acked_at_ckpt);
      prefix = TupleStrings(p.sink->collected());
    }  // harness + plan destroyed mid-flight: the crash (the trace
       // writer flushes on destruction)

    // Recovery: identical plan, the recorded trace replayed through a
    // fresh conduit, state restored from the checkpoint. The rebuilt
    // source records to the SAME trace path it is replaying from (the
    // natural durable setup): the replay reads the whole file into
    // the conduit before the plan opens (and truncates) it, and the
    // skip path re-appends the checkpointed prefix.
    Result<std::string> pre_crash_trace = ReadTraceFile(trace);
    ASSERT_TRUE(pre_crash_trace.ok()) << pre_crash_trace.status().ToString();
    {
      FrameConduit conduit;
      ASSERT_TRUE(ReplayMuxTraceIntoConduit(trace, &conduit).ok());
      IngestSourceOptions opts;
      opts.trace_path = trace;
      opts.max_frames_per_produce = 2;
      auto rebuilt = MakeIngestPlan(&conduit, opts);
      SchedHarnessOptions hopts;
      hopts.seed = seed + 100;
      SchedHarness h(hopts);
      Result<QueryId> id =
          h.scheduler()->SubmitRecovered(rebuilt.plan.get(), ckpt);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_TRUE(h.Drive().ok());
      ASSERT_TRUE(h.Wait(id.value()).ok());

      // The replay skipped exactly the checkpointed frame prefix and
      // re-admitted every post-checkpoint frame in the trace.
      EXPECT_EQ(rebuilt.source->replayed_skips(), acked_at_ckpt);
      EXPECT_EQ(rebuilt.source->acknowledged_offset(kTestProducer),
                acked_at_crash);

      // The re-recorded trace regained the checkpointed prefix
      // byte-for-byte: a SECOND crash could recover from this file.
      Result<std::string> rerecorded = ReadTraceFile(trace);
      ASSERT_TRUE(rerecorded.ok()) << rerecorded.status().ToString();
      EXPECT_EQ(rerecorded.value(), pre_crash_trace.value());

      std::multiset<std::string> combined = prefix;
      const std::multiset<std::string> recovered =
          TupleStrings(rebuilt.sink->collected());
      combined.insert(recovered.begin(), recovered.end());
      ExpectAtLeastOnce(expect, combined, "seed " + std::to_string(seed));
    }
    std::remove(ckpt.c_str());
    std::remove(trace.c_str());
  }
}

// A recovered source whose replay stream is SHORTER than the
// acknowledged offset (truncated trace) has lost admitted frames: it
// must fail LOUDLY — a clean close mid-skip would silently violate
// at-least-once — and must not hang.
TEST(IngestRecovery, TruncatedReplayFailsCleanly) {
  const int kN = 60;
  std::vector<Tuple> tuples = RandomIngestTuples(kN, 5);
  const std::string stream = EncodeIngestStream(tuples, 6);
  const std::string ckpt = TempPath("ingest_ckpt_trunc.nsp");

  {
    auto conduit = PrefilledConduit(stream);
    IngestSourceOptions opts;
    opts.max_frames_per_produce = 2;
    auto p = MakeIngestPlan(conduit.get(), opts);
    SchedHarnessOptions hopts;
    hopts.seed = 3;
    SchedHarness h(hopts);
    Result<QueryId> id = h.Submit(p.plan.get());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(h.DriveFor(8).ok());
    ASSERT_TRUE(h.scheduler()
                    ->StartCheckpoint(id.value(), CheckpointOptions{ckpt})
                    .ok());
    for (int guard = 0; guard < 1'000'000; ++guard) {
      if (auto res = h.scheduler()->CheckpointResult(id.value())) {
        ASSERT_TRUE(res->ok()) << res->ToString();
        break;
      }
      ASSERT_TRUE(h.DriveFor(1).ok());
    }
    ASSERT_GT(p.source->acknowledged_offset(kTestProducer), 1u);
  }

  // Replay only the hello and the first batch: fewer frames than the
  // acknowledged offset → the source runs out mid-skip and fails the
  // query, not hangs and not resolves OK with the lost frames
  // swallowed.
  const std::vector<std::string> frames = testing_util::SplitFrames(stream);
  auto conduit = PrefilledConduit(frames[0] + frames[1]);
  auto rebuilt = MakeIngestPlan(conduit.get());
  SchedHarness h;
  Result<QueryId> id =
      h.scheduler()->SubmitRecovered(rebuilt.plan.get(), ckpt);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(h.Drive().ok());
  Status st = h.Wait(id.value());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("short of the checkpointed offset"),
            std::string::npos)
      << st.ToString();
  // Nothing was emitted: every frame that did arrive was skipped.
  EXPECT_EQ(rebuilt.sink->consumed(), 0u);
  EXPECT_GT(rebuilt.source->replayed_skips(), 0u);
  std::remove(ckpt.c_str());
}

TEST(CrashRecovery, IngestClaimHeldAtTheCutIsEmittedAfterRecovery) {
  // Producer 1 makes a watermark claim and a general claim before the
  // cut; producer 2 makes both only after it.
  auto frame = [](auto append) {
    std::string f;
    append(&f);
    return f;
  };
  auto punct = [&](std::string_view pattern) {
    return frame([&](std::string* f) {
      AppendPunctuationFrame(f, Punctuation(testing_util::P(pattern)));
    });
  };
  auto hello = [&](uint64_t producer) {
    return frame(
        [&](std::string* f) { AppendHelloFrame(f, 3, producer, 0); });
  };
  auto batch = [&](int64_t a, std::vector<int64_t> bs) {
    std::vector<Tuple> rows;
    for (int64_t b : bs) {
      rows.push_back(TupleBuilder().I64(a).S("x").I64(b).Build());
    }
    return frame([&](std::string* f) { AppendTupleBatchFrame(f, rows); });
  };
  const std::string eos = frame([](std::string* f) { AppendEosFrame(f); });
  const std::vector<std::pair<uint64_t, std::string>> before_cut = {
      {1, hello(1)},         {2, hello(2)},
      {1, batch(1, {1, 2})}, {1, punct("[*,*,<=10]")},
      {1, punct("[>=100,*,*]")}, {2, batch(2, {5})}};
  const std::vector<std::pair<uint64_t, std::string>> after_cut = {
      {2, punct("[*,*,<=10]")}, {2, punct("[>=100,*,*]")}, {1, eos},
      {2, eos}};
  const std::string ckpt = TempPath("ingest_claim_ckpt.nsp");

  {
    // The conduit stays open: the source parks once it has admitted
    // everything before the cut, so the checkpoint lands there.
    FrameConduit conduit;
    for (const auto& [producer, f] : before_cut) {
      conduit.ForceMuxFrame(producer, f);
    }
    CheckedPlan p = MakeCheckedPlan(&conduit, 2, 1);
    SchedHarness h;
    Result<QueryId> id = h.Submit(p.plan.get());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    while (h.scheduler()->ReadyCount() > 0) {
      ASSERT_TRUE(h.DriveFor(1).ok());
    }
    ASSERT_EQ(p.source->acknowledged_offset(1), 3u);
    ASSERT_EQ(p.source->acknowledged_offset(2), 1u);
    ASSERT_TRUE(h.scheduler()
                    ->StartCheckpoint(id.value(), CheckpointOptions{ckpt})
                    .ok());
    for (int guard = 0;; ++guard) {
      ASSERT_LT(guard, 1'000'000) << "checkpoint never finished";
      if (auto res = h.scheduler()->CheckpointResult(id.value())) {
        ASSERT_TRUE(res->ok()) << res->ToString();
        break;
      }
      ASSERT_TRUE(h.DriveFor(1).ok());
    }
    EXPECT_EQ(p.sink->tuples, 3u);
    EXPECT_TRUE(p.sink->puncts.empty()) << "a claim producer 2 never made "
                                           "reached the plan";
  }  // the crash

  // Both producers reconnect and resend everything; the restored
  // offsets skip what the checkpoint acknowledged.
  FrameConduit conduit;
  for (const auto& frames : {before_cut, after_cut}) {
    for (const auto& [producer, f] : frames) {
      conduit.ForceMuxFrame(producer, f);
    }
  }
  conduit.CloseWrite();
  CheckedPlan rebuilt = MakeCheckedPlan(&conduit, 2, 1);
  SchedHarness h;
  Result<QueryId> id =
      h.scheduler()->SubmitRecovered(rebuilt.plan.get(), ckpt);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(h.Drive().ok());
  Status st = h.Wait(id.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rebuilt.source->replayed_skips(), 4u);
  EXPECT_EQ(rebuilt.sink->tuples, 0u);
  ASSERT_EQ(rebuilt.sink->puncts.size(), 2u);
  EXPECT_EQ(rebuilt.sink->puncts[0].pattern(),
            testing_util::P("[*,*,<=10]"));
  EXPECT_EQ(rebuilt.sink->puncts[1].pattern(),
            testing_util::P("[>=100,*,*]"));
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace nstream
