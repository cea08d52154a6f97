// Checkpoint/recovery across the MULTI-producer ingest edge: three
// producers' tagged frames interleave through one conduit with trace
// recording on, a checkpoint lands mid-stream under the deterministic
// scheduling harness, the plan crashes, and recovery replays the
// tagged trace (ReplayMuxTraceIntoConduit) into a rebuilt plan. The
// invariants ingest_recovery_test proves for one producer must survive
// the fan-in: the replay skips exactly the per-producer checkpointed
// prefixes, the re-recorded trace regains the prefix byte-for-byte,
// the combined output is at-least-once, per-producer arrival order
// holds, and a truncated replay still fails loudly.

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

using testing_util::MakeIngestPlan;
using testing_util::MakeProducerStream;
using testing_util::ProducerStream;
using testing_util::SchedHarness;
using testing_util::SchedHarnessOptions;
using testing_util::TupleStrings;

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

/// Hellos first (frames before a hello are a protocol violation), then
/// one frame per producer round-robin — the densest interleaving the
/// acceptor could produce, forced past the mux budget the way the
/// trace replayer does.
void InterleaveIntoConduit(const std::vector<ProducerStream>& streams,
                           FrameConduit* conduit) {
  for (const ProducerStream& s : streams) {
    conduit->ForceMuxFrame(s.producer, s.hello);
  }
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const ProducerStream& s : streams) {
      if (i < s.frames.size()) {
        conduit->ForceMuxFrame(s.producer, s.frames[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  conduit->CloseWrite();
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

TEST(IngestMuxTrace, MultiModeSnapshotRoundTrip) {
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

  // Determinism: snapshot(restore(snapshot)) == snapshot.
  SnapshotWriter w2;
  ASSERT_TRUE(back.SnapshotState(&w2).ok());
  EXPECT_EQ(w2.buffer(), bytes);
}

TEST(IngestMuxTrace, CheckpointCrashReplayInterleavedProducers) {
  constexpr int kProducers = 3;
  constexpr int kTuplesEach = 90;

  std::vector<ProducerStream> streams;
  std::multiset<std::string> expect;
  for (uint64_t producer = 1; producer <= kProducers; ++producer) {
    streams.push_back(
        MakeProducerStream(producer, kTuplesEach, 400 + producer, 3));
    for (const Tuple& t : streams.back().tuples) {
      expect.insert(t.ToString());
    }
  }

  uint64_t acked_sum_all_seeds = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string ckpt =
        TempPath("mux_ckpt_" + std::to_string(seed) + ".nsp");
    const std::string trace =
        TempPath("mux_trace_" + std::to_string(seed) + ".bin");

    std::multiset<std::string> prefix;
    uint64_t acked_sum_at_ckpt = 0;
    {
      FrameConduit conduit;
      InterleaveIntoConduit(streams, &conduit);
      IngestSourceOptions opts;
      opts.expected_eos_producers = kProducers;
      opts.trace_path = trace;
      opts.max_frames_per_produce = 2;  // stretch ingest across slices
      auto p = MakeIngestPlan(&conduit, opts);
      SchedHarnessOptions hopts;
      hopts.seed = seed;
      SchedHarness h(hopts);
      Result<QueryId> id = h.Submit(p.plan.get());
      ASSERT_TRUE(id.ok()) << id.status().ToString();

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
      for (uint64_t producer = 1; producer <= kProducers; ++producer) {
        acked_sum_at_ckpt += p.source->acknowledged_offset(producer);
      }

      // Run on until the whole interleaved stream is admitted (the
      // trace is then complete), then crash mid-plan.
      while (!p.source->finished() && !h.scheduler()->AllDone()) {
        Result<bool> stepped = h.DriveFor(1);
        ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
        if (stepped.value()) break;
      }
      prefix = TupleStrings(p.sink->collected());
    }  // harness + plan destroyed mid-flight: the crash (the trace
       // writer flushes on destruction)

    Result<std::string> pre_crash = ReadTraceFile(trace);
    ASSERT_TRUE(pre_crash.ok()) << pre_crash.status().ToString();
    {
      FrameConduit conduit;
      ASSERT_TRUE(ReplayMuxTraceIntoConduit(trace, &conduit).ok());
      IngestSourceOptions opts;
      opts.expected_eos_producers = kProducers;
      opts.trace_path = trace;  // re-record over the replayed file
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

      // The replay skipped exactly the frames the checkpoint had
      // acknowledged, summed across producers; nothing was mistaken
      // for a live reconnect.
      EXPECT_EQ(rebuilt.source->replayed_skips(), acked_sum_at_ckpt);
      EXPECT_EQ(rebuilt.source->resume_skips(), 0u);
      EXPECT_EQ(rebuilt.source->quarantined_producers(), 0u);

      // The re-recorded trace regained the checkpointed prefix
      // byte-for-byte — tagged records, interleaving and all — so a
      // SECOND crash could recover from this file.
      Result<std::string> rerecorded = ReadTraceFile(trace);
      ASSERT_TRUE(rerecorded.ok()) << rerecorded.status().ToString();
      EXPECT_EQ(rerecorded.value(), pre_crash.value());

      std::multiset<std::string> combined = prefix;
      const std::multiset<std::string> recovered =
          TupleStrings(rebuilt.sink->collected());
      combined.insert(recovered.begin(), recovered.end());
      ExpectAtLeastOnce(expect, combined, "seed " + std::to_string(seed));
      testing_util::ExpectPerProducerOrder(rebuilt.sink->collected());
    }
    acked_sum_all_seeds += acked_sum_at_ckpt;
    std::remove(ckpt.c_str());
    std::remove(trace.c_str());
  }
  // At least one seed's checkpoint must land mid-stream, or the
  // replay-skip assertions above were all trivially 0 == 0.
  EXPECT_GT(acked_sum_all_seeds, 0u);
}

// A recovered multi-producer plan whose replay ends before covering
// the checkpointed per-producer offsets has lost admitted frames: the
// query must fail loudly, not close cleanly with the loss swallowed —
// and a producer whose hello never replays at all counts as the same
// loss.
TEST(IngestMuxTrace, TruncatedMuxReplayFailsCleanly) {
  constexpr int kProducers = 2;
  std::vector<ProducerStream> streams;
  for (uint64_t producer = 1; producer <= kProducers; ++producer) {
    streams.push_back(MakeProducerStream(producer, 40, 70 + producer, 4));
  }
  const std::string ckpt = TempPath("mux_ckpt_trunc.nsp");

  {
    FrameConduit conduit;
    InterleaveIntoConduit(streams, &conduit);
    IngestSourceOptions opts;
    opts.expected_eos_producers = kProducers;
    opts.max_frames_per_produce = 2;
    auto p = MakeIngestPlan(&conduit, opts);
    SchedHarnessOptions hopts;
    hopts.seed = 3;
    SchedHarness h(hopts);
    Result<QueryId> id = h.Submit(p.plan.get());
    ASSERT_TRUE(id.ok());
    // Both producers must have acknowledged frames, or the truncation
    // below would lose nothing.
    for (int guard = 0;; ++guard) {
      ASSERT_LT(guard, 1'000'000) << "producers never made progress";
      if (p.source->acknowledged_offset(1) > 0 &&
          p.source->acknowledged_offset(2) > 0) {
        break;
      }
      ASSERT_TRUE(h.DriveFor(1).ok());
    }
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
  }

  // Replay only producer 1's hello: its frames are missing (a short
  // replay) and producer 2 never shows up at all (a missing session).
  FrameConduit conduit;
  conduit.ForceMuxFrame(1, streams[0].hello);
  conduit.CloseWrite();
  IngestSourceOptions opts;
  opts.expected_eos_producers = kProducers;
  auto rebuilt = MakeIngestPlan(&conduit, opts);
  SchedHarness h;
  Result<QueryId> id =
      h.scheduler()->SubmitRecovered(rebuilt.plan.get(), ckpt);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(h.Drive().ok());
  Status st = h.Wait(id.value());
  ASSERT_FALSE(st.ok()) << "truncated mux replay resolved OK";
  EXPECT_NE(st.message().find("short of the checkpointed offset"),
            std::string::npos)
      << st.ToString();
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace nstream
