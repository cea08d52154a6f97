// Hostile-input suite for the ingest edge, on its one path.
//
// Framing damage (bad magic on the first frame or mid-stream, an
// oversized size field, an unknown frame type, garbage after EOS, a
// torn final frame, and a seeded flip/truncate/insert/delete sweep)
// travels as raw bytes down a real loopback connection into
// TcpAcceptor → IngestSource → sink. The contract: the damaged
// producer is QUARANTINED and a kError frame tells it why, every whole
// frame before the damage is admitted, nothing of a partial frame is,
// and the query still ends cleanly when the acceptor stops.
//
// Payload and protocol damage (forged counts, wrong arity, an
// engine-direction frame, data before the hello or after EOS) arrives
// as whole tagged frames in memory on the sync executor: the source
// quarantines the producer and its kError reaches the client.
//
// The suite runs under ASan/UBSan/TSan in CI: any outcome but a crash,
// hang, leak or arena corruption is a counted quarantine.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ingest_test_util.h"

namespace nstream {
namespace {

using testing_util::EncodeIngestStream;
using testing_util::kTestProducer;
using testing_util::MakeIngestPlan;
using testing_util::RandomIngestTuples;
using testing_util::SplitFrames;

std::string ValidStream(int n = 30, uint64_t seed = 7) {
  // hello, b8, b8, punct, b8, b6, EOS for the defaults.
  return EncodeIngestStream(RandomIngestTuples(n, seed), 8, 16);
}

std::string Hello(uint32_t arity = 3) {
  std::string f;
  AppendHelloFrame(&f, arity, kTestProducer, 0);
  return f;
}

std::string Batch(int n, uint64_t seed) {
  std::string f;
  AppendTupleBatchFrame(&f, RandomIngestTuples(n, seed));
  return f;
}

/// A frame header (plus `payload`) written by hand, so tests can forge
/// sizes, types and counts the encoders would never produce.
std::string RawFrame(uint8_t type, std::string_view payload,
                     uint32_t size_field) {
  std::string f;
  const uint32_t magic = kFrameMagic;
  f.append(reinterpret_cast<const char*>(&magic), 4);
  f.append(reinterpret_cast<const char*>(&size_field), 4);
  f.push_back(static_cast<char>(type));
  f.append(payload.data(), payload.size());
  return f;
}

std::string RawFrame(FrameType type, std::string_view payload) {
  return RawFrame(static_cast<uint8_t>(type), payload,
                  static_cast<uint32_t>(payload.size()));
}

/// Tuples carried by the first `n` frames of a whole-frame stream.
uint64_t TuplesInFirstFrames(const std::vector<std::string>& frames,
                             size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n && i < frames.size(); ++i) {
    FrameView f;
    size_t consumed = 0;
    EXPECT_TRUE(ScanFrame(frames[i], &f, &consumed).ok());
    if (f.type != FrameType::kTupleBatch) continue;
    uint32_t count = 0;
    std::memcpy(&count, f.payload.data(), sizeof(count));
    total += count;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Framing damage over loopback TCP
// ---------------------------------------------------------------------------

struct EdgeRun {
  Status query;  // how the query ended once the acceptor stopped
  uint64_t consumed = 0;
  uint64_t acceptor_quarantines = 0;
  uint64_t source_quarantines = 0;
  bool eos_landed = false;  // the producer's whole stream was admitted
  std::string error;        // kError text the producer read ("" = none)
};

void SendAllFd(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // quarantined and closed under us: fine
    off += static_cast<size_t>(n);
  }
}

/// Read until the acceptor closes the connection (EOF or reset).
std::string ReadUntilClosed(int fd) {
  std::string out;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  char tmp[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n > 0) {
      out.append(tmp, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return out;
  }
  ADD_FAILURE() << "the acceptor never closed the connection";
  return out;
}

/// One producer writes `bytes` (hello first, `frames_after_hello`
/// frames after it when undamaged), half-closes, and reads until the
/// acceptor closes its connection; then the acceptor stops and the
/// query drains on a pooled executor.
EdgeRun RunOverLoopback(std::string_view bytes, uint64_t frames_after_hello) {
  EdgeRun out;
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  EXPECT_TRUE(acceptor.Listen().ok());
  auto p = MakeIngestPlan(&conduit);  // ends when the acceptor stops
  PooledExecutorOptions eopts;
  eopts.pool_size = 1;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  EXPECT_TRUE(id.ok()) << id.status().ToString();

  Result<int> fd = TcpConnectLoopback(acceptor.port());
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  std::string received;
  if (fd.ok()) {
    SendAllFd(fd.value(), bytes);
    ::shutdown(fd.value(), SHUT_WR);
    received = ReadUntilClosed(fd.value());
    ::close(fd.value());
  }
  acceptor.Stop();
  out.query = id.ok() ? exec.Wait(id.value()) : id.status();

  std::string_view rest = received;
  FrameView f;
  size_t consumed = 0;
  while (ScanFrame(rest, &f, &consumed).ok() && consumed > 0) {
    if (f.type == FrameType::kError) {
      EXPECT_TRUE(DecodeError(f.payload, &out.error).ok());
    }
    rest.remove_prefix(consumed);
  }
  out.consumed = p.sink->consumed();
  out.acceptor_quarantines = acceptor.StatsReport().quarantined;
  out.source_quarantines = p.source->quarantined_producers();
  out.eos_landed =
      p.source->acknowledged_offset(kTestProducer) == frames_after_hello;
  return out;
}

/// Damage the acceptor must catch: it quarantines the producer with a
/// kError containing `want`, after admitting exactly the whole frames
/// before the damage, and the query still ends cleanly at Stop().
void ExpectAcceptorQuarantine(const EdgeRun& r, const std::string& want,
                              uint64_t consumed) {
  EXPECT_TRUE(r.query.ok()) << r.query.ToString();
  EXPECT_EQ(r.acceptor_quarantines, 1u);
  EXPECT_NE(r.error.find(want), std::string::npos) << r.error;
  EXPECT_EQ(r.consumed, consumed);
}

TEST(IngestCorruption, ValidStreamIsAccepted) {
  const std::string bytes = ValidStream();
  EdgeRun r = RunOverLoopback(bytes, SplitFrames(bytes).size() - 1);
  ASSERT_TRUE(r.query.ok()) << r.query.ToString();
  EXPECT_EQ(r.consumed, 30u);
  EXPECT_TRUE(r.eos_landed);
  EXPECT_EQ(r.acceptor_quarantines, 0u);
  EXPECT_EQ(r.source_quarantines, 0u);
  EXPECT_EQ(r.error, "");
}

TEST(IngestCorruption, BadMagicFirstFrameQuarantines) {
  std::string bytes = ValidStream();
  bytes[0] ^= 0x5A;  // the hello's magic: nothing may be admitted
  EdgeRun r = RunOverLoopback(bytes, 6);
  ExpectAcceptorQuarantine(r, "magic", 0);
  // The session never opened, so the source never heard of it.
  EXPECT_EQ(r.source_quarantines, 0u);
}

TEST(IngestCorruption, BadMagicMidStreamQuarantines) {
  const std::vector<std::string> frames = SplitFrames(ValidStream());
  std::string bytes;
  for (const std::string& f : frames) bytes += f;
  size_t at = 0;
  for (size_t i = 0; i < 3; ++i) at += frames[i].size();
  bytes[at] ^= 0xFF;  // the punctuation frame's magic
  EdgeRun r = RunOverLoopback(bytes, frames.size() - 1);
  ExpectAcceptorQuarantine(r, "magic", TuplesInFirstFrames(frames, 3));
  EXPECT_EQ(r.source_quarantines, 1u);  // the forwarded notice
}

TEST(IngestCorruption, OversizedSizeFieldQuarantinesWithoutAllocating) {
  // Header only: the size field alone must kill the connection.
  const std::string bytes =
      Hello() + Batch(5, 3) +
      RawFrame(static_cast<uint8_t>(FrameType::kTupleBatch), "",
               kMaxFramePayload + 1);
  EdgeRun r = RunOverLoopback(bytes, 2);
  ExpectAcceptorQuarantine(r, "exceeds limit", 5);
}

TEST(IngestCorruption, UnknownFrameTypeQuarantines) {
  const std::string bytes = Hello() + Batch(5, 3) + RawFrame(250, "", 0);
  EdgeRun r = RunOverLoopback(bytes, 2);
  ExpectAcceptorQuarantine(r, "unknown frame type", 5);
}

TEST(IngestCorruption, GarbageAfterEosQuarantines) {
  // The EOS frame was admitted; whatever follows (here: bad magic) is
  // an error, not silently ignored.
  const std::string valid = ValidStream();
  EdgeRun r = RunOverLoopback(valid + "garbage bytes after a good stream",
                              SplitFrames(valid).size() - 1);
  ExpectAcceptorQuarantine(r, "magic", 30);
  EXPECT_TRUE(r.eos_landed);
}

TEST(IngestCorruption, TornFinalFrameDropsTheConnection) {
  // A connection that ends mid-frame is dropped; the whole frames
  // before the tear stand and nothing of the partial frame is
  // admitted. That is a crash, not a protocol violation: no kError.
  {
    SCOPED_TRACE("torn header");
    std::string bytes = ValidStream();
    bytes.resize(bytes.size() - kFrameHeaderBytes + 3);  // tear the EOS
    EdgeRun r = RunOverLoopback(bytes, 6);
    EXPECT_TRUE(r.query.ok()) << r.query.ToString();
    EXPECT_EQ(r.consumed, 30u);
    EXPECT_FALSE(r.eos_landed);
    EXPECT_EQ(r.acceptor_quarantines + r.source_quarantines, 0u);
    EXPECT_EQ(r.error, "");
  }
  {
    SCOPED_TRACE("torn payload");
    std::string bytes = Hello() + Batch(5, 3) + Batch(10, 9);
    bytes.resize(bytes.size() - 5);  // second batch torn mid-tuple
    EdgeRun r = RunOverLoopback(bytes, 3);
    EXPECT_TRUE(r.query.ok()) << r.query.ToString();
    EXPECT_EQ(r.consumed, 5u);
    EXPECT_EQ(r.acceptor_quarantines + r.source_quarantines, 0u);
    EXPECT_EQ(r.error, "");
  }
}

TEST(IngestCorruption, RandomizedDamageNeverCrashes) {
  const std::string valid = ValidStream(40, 99);
  const std::vector<std::string> frames = SplitFrames(valid);
  int hit_error_path = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9u);
    std::string bytes = valid;
    bool torn = false;
    uint64_t whole_frame_tuples = 0;
    switch (seed % 4) {
      case 0: {  // flip 1-4 random bytes
        const int flips = 1 + static_cast<int>(rng.NextBounded(4));
        for (int i = 0; i < flips; ++i) {
          bytes[rng.NextBounded(bytes.size())] ^=
              static_cast<char>(1 + rng.NextBounded(255));
        }
        break;
      }
      case 1: {  // truncate at a random offset
        const size_t cut = 1 + rng.NextBounded(bytes.size() - 1);
        bytes.resize(cut);
        size_t end = 0;
        size_t whole = 0;
        while (whole < frames.size() && end + frames[whole].size() <= cut) {
          end += frames[whole++].size();
        }
        torn = end != cut;
        whole_frame_tuples = TuplesInFirstFrames(frames, whole);
        break;
      }
      case 2: {  // insert random garbage at a random offset
        std::string junk(1 + rng.NextBounded(24), '\0');
        for (char& c : junk) {
          c = static_cast<char>(rng.NextBounded(256));
        }
        bytes.insert(rng.NextBounded(bytes.size()), junk);
        break;
      }
      case 3: {  // delete a random span (desync)
        const size_t at = rng.NextBounded(bytes.size() - 2);
        const size_t len =
            1 + rng.NextBounded(std::min<size_t>(bytes.size() - at - 1, 32));
        bytes.erase(at, len);
        break;
      }
    }
    EdgeRun r = RunOverLoopback(bytes, frames.size() - 1);
    // Whatever the damage, the query survives it and ends at Stop().
    EXPECT_TRUE(r.query.ok()) << r.query.ToString();
    if (r.acceptor_quarantines > 0) {
      EXPECT_NE(r.error, "") << "quarantined without a kError";
    }
    if (seed % 4 == 1) {
      // A truncated stream is a prefix of whole valid frames plus at
      // most one torn frame: every whole frame lands, the torn one
      // not at all, and nobody is quarantined.
      EXPECT_EQ(r.consumed, whole_frame_tuples);
      EXPECT_EQ(r.acceptor_quarantines + r.source_quarantines, 0u);
      if (torn) ++hit_error_path;
      continue;
    }
    // Damage can land in tuple data and still parse; most of it
    // desynchronizes the stream and quarantines the producer, or
    // leaves a frame the connection never completes.
    if (r.acceptor_quarantines + r.source_quarantines > 0 ||
        !r.eos_landed) {
      ++hit_error_path;
    }
  }
  // The sweep must actually be exercising the error paths.
  EXPECT_GE(hit_error_path, 20);
}

// ---------------------------------------------------------------------------
// Payload and protocol damage, in memory
// ---------------------------------------------------------------------------

struct MemRun {
  Status query;
  uint64_t consumed = 0;
  uint64_t quarantined = 0;
  Status client = Status::OK();  // the kError, as the client sees it
};

/// Queue `frames` whole under kTestProducer, run ingest → sink on the
/// sync executor, then read what came back to the producer.
MemRun RunFrames(const std::vector<std::string>& frames) {
  MemRun out;
  FrameConduit conduit;
  ConduitClient client(&conduit, kTestProducer);
  for (const std::string& f : frames) EXPECT_TRUE(client.SendRaw(f).ok());
  client.CloseWrite();
  auto p = MakeIngestPlan(&conduit);
  SyncExecutor exec;
  out.query = exec.Run(p.plan.get());
  out.consumed = p.sink->consumed();
  out.quarantined = p.source->quarantined_producers();
  for (;;) {
    Result<std::optional<FeedbackPunctuation>> fb = client.PollFeedback();
    if (!fb.ok()) {
      out.client = fb.status();
      break;
    }
    if (!fb.value().has_value()) break;
  }
  return out;
}

void ExpectSourceQuarantine(const MemRun& r, const std::string& want,
                            uint64_t consumed = 0) {
  EXPECT_TRUE(r.query.ok()) << r.query.ToString();
  EXPECT_EQ(r.quarantined, 1u);
  ASSERT_FALSE(r.client.ok()) << "no kError reached the producer";
  EXPECT_NE(r.client.message().find(want), std::string::npos)
      << r.client.ToString();
  EXPECT_EQ(r.consumed, consumed);
}

TEST(IngestCorruption, ForgedBatchCountQuarantinesBeforeReserve) {
  // A 4-byte payload claiming 2^30 tuples: the count/size plausibility
  // check must fire before any reservation.
  ByteWriter w;
  w.WriteU32(1u << 30);
  ExpectSourceQuarantine(
      RunFrames({Hello(), RawFrame(FrameType::kTupleBatch, w.buffer())}),
      "impossible");
}

TEST(IngestCorruption, ForgedPatternCountQuarantinesBeforeAllocating) {
  // A punctuation frame whose pattern claims 2^32-1 attrs in a 4-byte
  // payload: the count/remaining-bytes guard must fire before the
  // attrs vector is allocated (under ASan an actual multi-GB
  // allocation attempt would abort the run).
  ByteWriter w;
  w.WriteU32(0xFFFFFFFFu);
  ExpectSourceQuarantine(
      RunFrames({Hello(), RawFrame(FrameType::kPunctuation, w.buffer())}),
      "impossible");
}

TEST(IngestCorruption, WrongArityQuarantines) {
  {
    SCOPED_TRACE("hello arity");
    ExpectSourceQuarantine(RunFrames({Hello(5), Batch(3, 1)}), "arity");
  }
  {
    SCOPED_TRACE("tuple arity");  // hello says 3, tuples have 2
    std::string bad;
    AppendTupleBatchFrame(&bad, {TupleBuilder().I64(1).I64(2).Build()});
    ExpectSourceQuarantine(RunFrames({Hello(), Batch(4, 2), bad}), "arity",
                           4);
  }
}

TEST(IngestCorruption, EngineDirectionFrameQuarantines) {
  std::string fb;
  AppendFeedbackFrame(&fb, testing_util::FB("~[*,*,>=5]"));
  ExpectSourceQuarantine(RunFrames({Hello(), fb}), "engine-direction");
}

TEST(IngestCorruption, FrameBeforeHelloQuarantines) {
  ExpectSourceQuarantine(RunFrames({Batch(3, 1), Hello()}), "hello");
}

TEST(IngestCorruption, FrameAfterEosQuarantines) {
  std::vector<std::string> frames =
      SplitFrames(EncodeIngestStream(RandomIngestTuples(5, 13), 5));
  frames.push_back(Batch(5, 13));  // well-formed, but after EOS
  ExpectSourceQuarantine(RunFrames(frames), "after EOS", 5);
}

}  // namespace
}  // namespace nstream
