// Wire-format unit tests: frame codecs round-trip, incremental
// scanning, zero-copy vs owned batch-decode equivalence, the conduit's
// mux budget and bounded feedback queue, and trace record/replay
// identity.

#include "ingest/wire_format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ingest/frame_conduit.h"
#include "ingest/trace.h"
#include "ingest_test_util.h"
#include "stream/columnar.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

using testing_util::FB;
using testing_util::P;
using testing_util::RandomIngestTuples;

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

TEST(WireFormat, HelloRoundTrip) {
  std::string bytes;
  AppendHelloFrame(&bytes, 7, /*producer_id=*/3, /*resume_offset=*/12);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  ASSERT_EQ(consumed, bytes.size());
  ASSERT_EQ(f.type, FrameType::kHello);
  uint32_t version = 0, arity = 0;
  uint64_t producer = 0, resume = 0;
  ASSERT_TRUE(DecodeHello(f.payload, &version, &arity, &producer, &resume)
                  .ok());
  EXPECT_EQ(version, kWireVersion);
  EXPECT_EQ(arity, 7u);
  EXPECT_EQ(producer, 3u);
  EXPECT_EQ(resume, 12u);
}

TEST(WireFormat, PunctuationRoundTrip) {
  Punctuation p(P("[*,>=50,7]"));
  std::string bytes;
  AppendPunctuationFrame(&bytes, p);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  ASSERT_EQ(f.type, FrameType::kPunctuation);
  Punctuation back;
  ASSERT_TRUE(DecodePunctuation(f.payload, &back).ok());
  EXPECT_EQ(back.pattern().ToString(), p.pattern().ToString());
}

TEST(WireFormat, FeedbackRoundTripWithProvenance) {
  FeedbackPunctuation fb = FB("~[*,>=50]");
  fb.set_origin_op(42);
  fb.set_hop_count(3);
  fb.set_issued_at_ms(12345);
  fb.set_deadline_ms(99999);
  std::string bytes;
  AppendFeedbackFrame(&bytes, fb);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  ASSERT_EQ(f.type, FrameType::kFeedback);
  FeedbackPunctuation back;
  ASSERT_TRUE(DecodeFeedback(f.payload, &back).ok());
  EXPECT_TRUE(back.EquivalentTo(fb));
  EXPECT_EQ(back.origin_op(), 42);
  EXPECT_EQ(back.hop_count(), 3);
  EXPECT_EQ(back.issued_at_ms(), 12345);
  EXPECT_EQ(back.deadline_ms(), 99999);
}

TEST(WireFormat, EosFrameIsEmpty) {
  std::string bytes;
  AppendEosFrame(&bytes);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  EXPECT_EQ(f.type, FrameType::kEos);
  EXPECT_TRUE(f.payload.empty());
}

TEST(WireFormat, IncrementalScanNeedsWholeFrame) {
  std::vector<Tuple> tuples = RandomIngestTuples(5, 11);
  std::string bytes;
  AppendTupleBatchFrame(&bytes, tuples);
  // Every strict prefix is "need more", never an error, never a frame.
  for (size_t len = 0; len < bytes.size(); ++len) {
    FrameView f;
    size_t consumed = 1;
    Status s = ScanFrame(std::string_view(bytes.data(), len), &f,
                         &consumed);
    ASSERT_TRUE(s.ok()) << "prefix len " << len << ": " << s.ToString();
    ASSERT_EQ(consumed, 0u) << "prefix len " << len;
  }
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
}

TEST(WireFormat, ScanLeavesTrailingBytesAlone) {
  std::string bytes;
  AppendEosFrame(&bytes);
  const size_t first = bytes.size();
  AppendHelloFrame(&bytes, 3, 1, 0);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  EXPECT_EQ(consumed, first);  // exactly one frame consumed
  EXPECT_EQ(f.type, FrameType::kEos);
}

// Zero-copy and owned decodes agree, under every storage regime, and
// id assignment matches the VectorSource rule.
TEST(WireFormat, BatchDecodeZeroCopyMatchesOwned) {
  std::vector<Tuple> tuples = RandomIngestTuples(64, 23);
  std::string bytes;
  AppendTupleBatchFrame(&bytes, tuples);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());

  std::vector<Tuple> owned;
  uint32_t arity = 3;
  ASSERT_TRUE(DecodeTupleBatchOwned(f.payload, arity, &owned).ok());
  ASSERT_EQ(owned.size(), tuples.size());

  for (bool arenas : {false, true}) {
    for (bool columnar : {false, true}) {
      SCOPED_TRACE("arenas=" + std::to_string(arenas) +
                   " columnar=" + std::to_string(columnar));
      ScopedTupleArenasEnabled a(arenas);
      ScopedPageColumnarEnabled c(columnar);
      Page page;
      int64_t next_id = 1;
      ASSERT_TRUE(DecodeTupleBatchInto(f.payload, arity, &page,
                                       /*allow_columnar=*/true, &next_id)
                      .ok());
      ASSERT_EQ(page.size(), tuples.size());
      EXPECT_EQ(page.is_columnar(), arenas && columnar);
      page.EnsureRowLayout();
      for (size_t i = 0; i < tuples.size(); ++i) {
        const Tuple& got = page.elements()[i].tuple();
        EXPECT_EQ(got.ToString(), owned[i].ToString()) << "row " << i;
        EXPECT_EQ(got.id(), static_cast<int64_t>(i) + 1)
            << "id assignment must match VectorSource";
      }
      EXPECT_EQ(next_id, static_cast<int64_t>(tuples.size()) + 1);
    }
  }
}

TEST(WireFormat, BatchDecodePreservesExplicitIdsAndArrivals) {
  std::vector<Tuple> tuples = RandomIngestTuples(4, 31);
  tuples[1].set_id(500);
  tuples[1].set_arrival_ms(777);
  std::string bytes;
  AppendTupleBatchFrame(&bytes, tuples);
  FrameView f;
  size_t consumed = 0;
  ASSERT_TRUE(ScanFrame(bytes, &f, &consumed).ok());
  Page page;
  int64_t next_id = 1;
  ASSERT_TRUE(DecodeTupleBatchInto(f.payload, 3, &page, true, &next_id)
                  .ok());
  page.EnsureRowLayout();
  EXPECT_EQ(page.elements()[1].tuple().id(), 500);
  EXPECT_EQ(page.elements()[1].tuple().arrival_ms(), 777);
  // 0-id tuples got 1,2,3 (the explicit id does not advance next_id).
  EXPECT_EQ(page.elements()[0].tuple().id(), 1);
  EXPECT_EQ(page.elements()[3].tuple().id(), 3);
}

// ---------------------------------------------------------------------------
// Frame conduit
// ---------------------------------------------------------------------------

TEST(FrameConduitTest, OfferMuxFrameStopsAtBudget) {
  FrameConduitOptions opts;
  opts.mux_budget_bytes = 16;
  FrameConduit conduit(opts);
  const std::string frame(8, 'x');
  EXPECT_TRUE(conduit.OfferMuxFrame(1, frame));
  EXPECT_TRUE(conduit.OfferMuxFrame(2, frame));
  EXPECT_EQ(conduit.mux_queued_bytes(), 16u);
  EXPECT_FALSE(conduit.OfferMuxFrame(1, "more"));  // budget full
  // A budget-exempt control frame still gets through.
  conduit.ForceMuxFrame(1, "notice");
  EXPECT_EQ(conduit.mux_queued_bytes(), 22u);
  // Consumer drains → producer can continue, in queue order.
  std::optional<MuxFrame> f1 = conduit.TryPopMuxFrame();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->producer, 1u);
  EXPECT_EQ(f1->bytes, frame);
  EXPECT_FALSE(conduit.OfferMuxFrame(1, "more"));  // 14 + 4 > 16
  ASSERT_TRUE(conduit.TryPopMuxFrame().has_value());
  EXPECT_TRUE(conduit.OfferMuxFrame(1, "more"));
  // One frame larger than the whole budget still makes progress on an
  // empty queue, or it could never be admitted at all.
  ASSERT_TRUE(conduit.TryPopMuxFrame().has_value());
  ASSERT_TRUE(conduit.TryPopMuxFrame().has_value());
  EXPECT_FALSE(conduit.HasMuxFrames());
  EXPECT_TRUE(conduit.OfferMuxFrame(3, std::string(64, 'y')));
}

TEST(FrameConduitTest, FeedbackQueueIsBoundedDropOldest) {
  FrameConduitOptions opts;
  opts.max_feedback_frames = 3;
  FrameConduit conduit(opts);
  for (int i = 0; i < 10; ++i) {
    conduit.PushFeedbackFrameTo(static_cast<uint64_t>(i % 2),
                                "fb" + std::to_string(i));
  }
  // With no drainer attached, only the newest max_feedback_frames
  // survive; the rest were dropped oldest-first, routing intact.
  EXPECT_EQ(conduit.feedback_dropped(), 7u);
  std::vector<std::string> got;
  std::vector<uint64_t> targets;
  while (auto f = conduit.TryPopRoutedFeedback()) {
    got.push_back(f->bytes);
    targets.push_back(f->target);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"fb7", "fb8", "fb9"}));
  EXPECT_EQ(targets, (std::vector<uint64_t>{1, 0, 1}));
}

// ---------------------------------------------------------------------------
// Trace record / replay
// ---------------------------------------------------------------------------

TEST(Trace, RecordThenReplayIsByteIdentical) {
  std::vector<Tuple> tuples = RandomIngestTuples(20, 47);
  const std::vector<std::string> frames = testing_util::SplitFrames(
      testing_util::EncodeIngestStream(tuples, 6, 12));
  const std::string path = TempPath("trace_rt.bin");

  // Two producers' frames interleaved, appended as IngestSource does on
  // admission.
  std::vector<MuxFrame> admitted;
  for (const std::string& f : frames) {
    admitted.push_back(MuxFrame{1, f});
    admitted.push_back(MuxFrame{7, f});
  }
  {
    FrameTraceWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (const MuxFrame& m : admitted) {
      ASSERT_TRUE(w.AppendTagged(m.producer, m.bytes).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }

  // Replay through a conduit reproduces every record, tag and bytes,
  // in admission order — past the mux budget, like any trusted replay.
  FrameConduitOptions opts;
  opts.mux_budget_bytes = 64;
  FrameConduit conduit(opts);
  ASSERT_TRUE(ReplayMuxTraceIntoConduit(path, &conduit).ok());
  std::vector<MuxFrame> replayed;
  while (auto m = conduit.TryPopMuxFrame()) replayed.push_back(*m);
  ASSERT_EQ(replayed.size(), admitted.size());
  for (size_t i = 0; i < admitted.size(); ++i) {
    EXPECT_EQ(replayed[i].producer, admitted[i].producer) << "record " << i;
    EXPECT_EQ(replayed[i].bytes, admitted[i].bytes) << "record " << i;
  }
  EXPECT_TRUE(conduit.write_closed());

  // A torn final record is reported, never half-replayed.
  Result<std::string> bytes = ReadTraceFile(path);
  ASSERT_TRUE(bytes.ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.value().data(), 1, bytes.value().size() - 3, f);
    std::fclose(f);
  }
  FrameConduit torn;
  EXPECT_FALSE(ReplayMuxTraceIntoConduit(path, &torn).ok());
  std::remove(path.c_str());
}

TEST(Trace, MissingFileAndUnopenedWriterFailCleanly) {
  EXPECT_FALSE(ReadTraceFile(TempPath("nope.bin")).ok());
  FrameTraceWriter w;
  EXPECT_FALSE(w.AppendTagged(1, "x").ok());
  EXPECT_TRUE(w.Close().ok());  // closing a never-opened writer is OK
  FrameConduit conduit;
  EXPECT_FALSE(
      ReplayMuxTraceIntoConduit(TempPath("nope.bin"), &conduit).ok());
}

}  // namespace
}  // namespace nstream
