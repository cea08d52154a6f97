// The fault-tolerant TCP serving edge, end to end: a real listening
// socket, N producer connections fanning into one conduit/source, and
// the robustness contracts — per-connection quarantine (a corrupt
// producer dies ALONE), session resume with engine-acknowledged
// offsets, feedback relayed back over the producer's own connection,
// heartbeats + idle reclaim (never of a connection paused by
// backpressure), shedding under pressure, a bounded send
// side for producers that stop reading, and the ReconnectBackoff
// policy producers pace retries with.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ingest_test_util.h"

namespace nstream {
namespace {

using testing_util::MakeIngestPlan;
using testing_util::MakeProducerStream;
using testing_util::ProducerStream;
using testing_util::TupleStrings;

void WriteAllFd(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "socket write failed: " << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

/// Graceful producer exit: half-close the write side, then drain
/// engine → producer frames (acks, heartbeats) until the acceptor
/// closes. An abrupt close() instead would RST the connection, and the
/// RST discards whatever the acceptor had not read yet — which is a
/// producer CRASH, not a clean end of stream.
void FinishAndClose(int fd) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  char tmp[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n == 0) break;
    if (n < 0 && errno != EINTR) break;
  }
  ::close(fd);
}

/// Read whole frames off `fd` until one of `want` arrives (others —
/// heartbeats, feedback — are consumed and counted), or `deadline`.
/// Returns the payload of the matched frame via out params.
bool ReadFrameOfType(int fd, std::initializer_list<FrameType> want,
                     FrameType* got, std::string* payload,
                     std::chrono::steady_clock::time_point deadline,
                     std::string* buf) {
  for (;;) {
    FrameView f;
    size_t consumed = 0;
    if (ScanFrame(*buf, &f, &consumed).ok() && consumed > 0) {
      const FrameType t = f.type;
      std::string p(f.payload);
      buf->erase(0, consumed);
      for (FrameType w : want) {
        if (t == w) {
          *got = t;
          *payload = std::move(p);
          return true;
        }
      }
      continue;  // not the one we want (heartbeat etc.): keep reading
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char tmp[4096];
    ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n > 0) {
      buf->append(tmp, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return false;  // peer closed
    }
  }
}

// ---- Satellite: the reconnect backoff policy, standalone ----

TEST(ReconnectBackoffTest, ExactExponentialWithoutJitter) {
  ReconnectBackoffOptions opts;
  opts.base_delay_ms = 10;
  opts.max_delay_ms = 200;
  opts.multiplier = 2.0;
  opts.jitter = 0.0;
  ReconnectBackoff b(opts);
  EXPECT_EQ(b.NextDelayMs(), 10);
  EXPECT_EQ(b.NextDelayMs(), 20);
  EXPECT_EQ(b.NextDelayMs(), 40);
  EXPECT_EQ(b.NextDelayMs(), 80);
  EXPECT_EQ(b.NextDelayMs(), 160);
  EXPECT_EQ(b.NextDelayMs(), 200);  // capped
  EXPECT_EQ(b.NextDelayMs(), 200);
  EXPECT_EQ(b.attempts(), 7);
  b.Reset();
  EXPECT_EQ(b.attempts(), 0);
  EXPECT_EQ(b.NextDelayMs(), 10);  // schedule restarts from base
}

TEST(ReconnectBackoffTest, JitterIsBoundedAndSeeded) {
  ReconnectBackoffOptions opts;
  opts.base_delay_ms = 100;
  opts.max_delay_ms = 10'000;
  opts.multiplier = 2.0;
  opts.jitter = 0.25;
  opts.seed = 7;
  ReconnectBackoff a(opts);
  ReconnectBackoff same(opts);
  opts.seed = 8;
  ReconnectBackoff other(opts);
  bool any_diff = false;
  int64_t expected_base = 100;
  for (int i = 0; i < 8; ++i) {
    const int64_t d = a.NextDelayMs();
    // Within ±25% of the un-jittered step, and never above max+25%.
    EXPECT_GE(d, expected_base * 3 / 4);
    EXPECT_LE(d, expected_base * 5 / 4);
    EXPECT_EQ(d, same.NextDelayMs()) << "same seed must replay exactly";
    if (d != other.NextDelayMs()) any_diff = true;
    expected_base = std::min<int64_t>(expected_base * 2, 10'000);
  }
  EXPECT_TRUE(any_diff) << "different seeds produced identical jitter";
}

// ---- The serving edge proper ----

TEST(TcpAcceptorTest, MultiProducerFanInMatchesUnion) {
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ASSERT_TRUE(acceptor.Listen().ok());

  IngestSourceOptions sopts;
  sopts.expected_eos_producers = 3;
  auto p = MakeIngestPlan(&conduit, sopts);
  PooledExecutorOptions eopts;
  eopts.pool_size = 2;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  std::vector<ProducerStream> streams;
  std::multiset<std::string> expect;
  for (uint64_t producer = 1; producer <= 3; ++producer) {
    streams.push_back(MakeProducerStream(producer, 120, producer * 11, 7));
    for (const Tuple& t : streams.back().tuples) {
      expect.insert(t.ToString());
    }
  }
  std::vector<std::thread> threads;
  for (const ProducerStream& s : streams) {
    threads.emplace_back([&s, &acceptor] {
      Result<int> fd = TcpConnectLoopback(acceptor.port());
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      WriteAllFd(fd.value(), s.hello);
      for (const std::string& f : s.frames) WriteAllFd(fd.value(), f);
      FinishAndClose(fd.value());
    });
  }
  for (std::thread& t : threads) t.join();

  Status st = exec.Wait(id.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(TupleStrings(p.sink->collected()), expect);
  testing_util::ExpectPerProducerOrder(p.sink->collected());
  EXPECT_EQ(p.source->quarantined_producers(), 0u);

  AcceptorStats stats = acceptor.StatsReport();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.quarantined, 0u);
  // hello + batches + EOS per producer, all forwarded.
  uint64_t frames_expected = 0;
  for (const ProducerStream& s : streams) {
    frames_expected += 1 + s.frames.size();
  }
  EXPECT_EQ(stats.frames_forwarded, frames_expected);
  acceptor.Stop();
}

// The ISSUE's quarantine regression: one producer turns to garbage
// mid-stream; it must be cut off, counted, and told why — while a
// concurrent healthy producer finishes and the query completes with
// exactly the healthy data.
TEST(TcpAcceptorTest, QuarantineIsolatesCorruptProducer) {
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ASSERT_TRUE(acceptor.Listen().ok());

  IngestSourceOptions sopts;
  sopts.expected_eos_producers = 2;  // quarantine must count as done
  auto p = MakeIngestPlan(&conduit, sopts);
  PooledExecutorOptions eopts;
  eopts.pool_size = 2;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  ProducerStream healthy = MakeProducerStream(1, 150, 5, 6);
  ProducerStream sick = MakeProducerStream(2, 40, 6, 6);

  std::thread healthy_thread([&] {
    Result<int> fd = TcpConnectLoopback(acceptor.port());
    ASSERT_TRUE(fd.ok());
    WriteAllFd(fd.value(), healthy.hello);
    for (const std::string& f : healthy.frames) {
      WriteAllFd(fd.value(), f);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    FinishAndClose(fd.value());
  });

  // The sick producer sends a valid hello + one valid batch, then raw
  // garbage that cannot be a frame header.
  Result<int> sick_fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(sick_fd.ok());
  WriteAllFd(sick_fd.value(), sick.hello);
  WriteAllFd(sick_fd.value(), sick.frames[0]);
  WriteAllFd(sick_fd.value(), "\xff\xff\xff\xffgarbage-not-a-frame");

  // The acceptor must answer with a kError frame, then close.
  FrameType got = FrameType::kEos;
  std::string payload;
  std::string rbuf;
  ASSERT_TRUE(ReadFrameOfType(
      sick_fd.value(), {FrameType::kError}, &got, &payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(10), &rbuf))
      << "quarantined producer never received its error frame";
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &message).ok());
  EXPECT_NE(message.find("acceptor"), std::string::npos) << message;
  // ... and the socket reaches EOF (connection closed server-side).
  const auto eof_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    char tmp[256];
    ssize_t n = ::read(sick_fd.value(), tmp, sizeof(tmp));
    if (n == 0) break;
    if (n < 0 && errno != EINTR && errno != EAGAIN) break;
    ASSERT_LT(std::chrono::steady_clock::now(), eof_deadline)
        << "quarantined connection never closed";
  }
  ::close(sick_fd.value());
  healthy_thread.join();

  // The query survived and completed: healthy data intact, the sick
  // producer contributed exactly its pre-corruption frames.
  Status st = exec.Wait(id.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::multiset<std::string> collected = TupleStrings(p.sink->collected());
  std::multiset<std::string> expect = TupleStrings(healthy.tuples);
  for (size_t i = 0; i < 6; ++i) {  // sick batch 0 was admitted pre-garbage
    expect.insert(sick.tuples[i].ToString());
  }
  EXPECT_EQ(collected, expect);
  EXPECT_EQ(p.source->quarantined_producers(), 1u);

  AcceptorStats stats = acceptor.StatsReport();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  acceptor.Stop();
}

TEST(TcpAcceptorTest, HeartbeatsFlowAndIdleConnectionsClose) {
  FrameConduit conduit;
  TcpAcceptorOptions aopts;
  aopts.heartbeat_interval_ms = 5;
  aopts.idle_timeout_ms = 80;
  TcpAcceptor acceptor(&conduit, aopts);
  ASSERT_TRUE(acceptor.Listen().ok());

  auto p = MakeIngestPlan(&conduit);  // ends when the acceptor stops
  PooledExecutorOptions eopts;
  eopts.pool_size = 2;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok());

  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  std::string hello;
  AppendHelloFrame(&hello, 3, /*producer_id=*/4, 0);
  WriteAllFd(fd.value(), hello);

  // Liveness: heartbeats arrive while we stay silent...
  FrameType got = FrameType::kEos;
  std::string payload;
  std::string rbuf;
  ASSERT_TRUE(ReadFrameOfType(
      fd.value(), {FrameType::kHeartbeat}, &got, &payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(10), &rbuf));

  // ...until the idle timeout reclaims the connection: EOF, not error.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool eof = false;
  while (std::chrono::steady_clock::now() < deadline) {
    char tmp[256];
    ssize_t n = ::read(fd.value(), tmp, sizeof(tmp));
    if (n == 0) {
      eof = true;
      break;
    }
    if (n < 0 && errno != EINTR) break;
  }
  EXPECT_TRUE(eof) << "idle connection was never closed";
  ::close(fd.value());

  AcceptorStats stats = acceptor.StatsReport();
  EXPECT_GE(stats.heartbeats_sent, 1u);
  EXPECT_EQ(stats.idle_closes, 1u);
  EXPECT_EQ(stats.quarantined, 0u);  // idle is reclaim, not punishment
  acceptor.Stop();
  ASSERT_TRUE(exec.Wait(id.value()).ok());
}

// Disconnect mid-stream, reconnect, resume: the hello-ack handshake
// tells the producer where the engine stands; duplicates the producer
// re-sends are skipped engine-side. Union of both sessions' output is
// exactly the stream — at-least-once with engine-side dedup.
TEST(TcpAcceptorTest, SessionResumeSkipsDuplicates) {
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ASSERT_TRUE(acceptor.Listen().ok());

  IngestSourceOptions sopts;
  sopts.expected_eos_producers = 1;
  auto p = MakeIngestPlan(&conduit, sopts);
  PooledExecutorOptions eopts;
  eopts.pool_size = 2;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok());

  ProducerStream s = MakeProducerStream(9, 200, 17, 8);
  const size_t cut = s.frames.size() / 2;

  // Session 1: half the frames, then the connection dies.
  {
    Result<int> fd = TcpConnectLoopback(acceptor.port());
    ASSERT_TRUE(fd.ok());
    WriteAllFd(fd.value(), s.hello);
    for (size_t i = 0; i < cut; ++i) WriteAllFd(fd.value(), s.frames[i]);
    ::close(fd.value());
  }

  // Session 2: reconnect, declare a full rewind (resume 0), learn the
  // engine's acknowledged offset from the hello-ack, resend all.
  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  WriteAllFd(fd.value(), s.hello);  // resume offset 0 again
  FrameType got = FrameType::kEos;
  std::string payload;
  std::string rbuf;
  ASSERT_TRUE(ReadFrameOfType(
      fd.value(), {FrameType::kHelloAck}, &got, &payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(10), &rbuf));
  uint64_t acknowledged = 0;
  ASSERT_TRUE(DecodeHelloAck(payload, &acknowledged).ok());
  // The engine admitted at most the frames session 1 sent; whatever
  // the count, resending everything must not duplicate output.
  EXPECT_LE(acknowledged, cut);
  for (const std::string& f : s.frames) WriteAllFd(fd.value(), f);
  FinishAndClose(fd.value());

  Status st = exec.Wait(id.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(TupleStrings(p.sink->collected()), TupleStrings(s.tuples));
  testing_util::ExpectPerProducerOrder(p.sink->collected());
  EXPECT_EQ(p.source->resume_skips(), acknowledged);
  EXPECT_EQ(p.source->quarantined_producers(), 0u);
  EXPECT_EQ(acceptor.StatsReport().reconnects, 1u);
  acceptor.Stop();
}

// A resume offset PAST the acknowledged one declares a gap: frames
// the engine never saw would vanish. That is a protocol violation —
// quarantined, never silently accepted.
TEST(TcpAcceptorTest, ResumeBeyondAcknowledgedIsQuarantined) {
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ASSERT_TRUE(acceptor.Listen().ok());

  IngestSourceOptions sopts;
  sopts.expected_eos_producers = 1;
  auto p = MakeIngestPlan(&conduit, sopts);
  PooledExecutorOptions eopts;
  eopts.pool_size = 2;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok());

  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  std::string hello;
  AppendHelloFrame(&hello, 3, /*producer_id=*/5, /*resume_offset=*/12);
  WriteAllFd(fd.value(), hello);

  FrameType got = FrameType::kEos;
  std::string payload;
  std::string rbuf;
  ASSERT_TRUE(ReadFrameOfType(
      fd.value(), {FrameType::kError}, &got, &payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(10), &rbuf));
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &message).ok());
  EXPECT_NE(message.find("resume offset"), std::string::npos) << message;
  ::close(fd.value());

  ASSERT_TRUE(exec.Wait(id.value()).ok());
  EXPECT_EQ(p.sink->consumed(), 0u);
  EXPECT_EQ(p.source->quarantined_producers(), 1u);
  acceptor.Stop();
}

// Sustained conduit pressure (tiny budget, nobody draining) must turn
// into kShed advice on the wire — pace yourself, then thin — instead
// of unbounded queueing or silent stalls.
TEST(TcpAcceptorTest, ShedAdviceReachesProducersUnderPressure) {
  FrameConduitOptions copts;
  copts.mux_budget_bytes = 256;
  FrameConduit conduit(copts);
  TcpAcceptorOptions aopts;
  aopts.shed_cooldown_ms = 5;
  TcpAcceptor acceptor(&conduit, aopts);
  ASSERT_TRUE(acceptor.Listen().ok());
  // No executor: the source never drains, pressure is guaranteed.

  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  std::string hello;
  AppendHelloFrame(&hello, 3, /*producer_id=*/2, 0);
  WriteAllFd(fd.value(), hello);
  std::vector<Tuple> tuples = testing_util::SequencedTuples(2, 40, 3);
  std::string batch;
  AppendTupleBatchFrame(&batch, tuples);

  // Flood (non-blocking) while watching for the shed frame.
  FrameType got = FrameType::kEos;
  std::string payload;
  std::string rbuf;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool shed_seen = false;
  size_t wr_off = 0;
  while (!shed_seen && std::chrono::steady_clock::now() < deadline) {
    ssize_t n = ::send(fd.value(), batch.data() + wr_off,
                       batch.size() - wr_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) wr_off = (wr_off + static_cast<size_t>(n)) % batch.size();
    shed_seen = ReadFrameOfType(
        fd.value(), {FrameType::kShed}, &got, &payload,
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20),
        &rbuf);
  }
  ASSERT_TRUE(shed_seen) << "no shed advice under sustained pressure";
  ShedIntent intent = ShedIntent::kSlowDown;
  uint32_t level = 0;
  ASSERT_TRUE(DecodeShed(payload, &intent, &level).ok());
  EXPECT_GT(level, 0u);

  AcceptorStats stats = acceptor.StatsReport();
  EXPECT_GE(stats.sheds_sent, 1u);
  EXPECT_GE(stats.backpressure_pauses, 1u);
  ::close(fd.value());
  acceptor.Stop();
}

// Backpressure is not silence: while the conduit is at its budget the
// acceptor stops reading, so nothing arrives however hard the producer
// sends. The idle timeout must not reclaim a connection for that.
TEST(TcpAcceptorTest, BackpressurePauseIsNotIdleness) {
  FrameConduitOptions copts;
  copts.mux_budget_bytes = 256;
  FrameConduit conduit(copts);
  TcpAcceptorOptions aopts;
  aopts.idle_timeout_ms = 80;
  TcpAcceptor acceptor(&conduit, aopts);
  ASSERT_TRUE(acceptor.Listen().ok());
  // No executor: the source never drains, so reads stay paused.

  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  std::string hello;
  AppendHelloFrame(&hello, 3, /*producer_id=*/2, 0);
  WriteAllFd(fd.value(), hello);
  std::vector<Tuple> tuples = testing_util::SequencedTuples(2, 40, 3);
  std::string batch;
  AppendTupleBatchFrame(&batch, tuples);

  // Keep offering bytes (non-blocking) for five idle timeouts.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  size_t wr_off = 0;
  while (std::chrono::steady_clock::now() < until) {
    ssize_t n = ::send(fd.value(), batch.data() + wr_off,
                       batch.size() - wr_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) wr_off = (wr_off + static_cast<size_t>(n)) % batch.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  AcceptorStats stats = acceptor.StatsReport();
  EXPECT_GE(stats.backpressure_pauses, 1u);
  EXPECT_EQ(stats.idle_closes, 0u);
  EXPECT_EQ(stats.closed, 0u);
  ::close(fd.value());
  acceptor.Stop();
}

// The paper's producer <-> engine loop over a real kernel transport:
// feedback punctuation the sink issues travels back across the
// producer's own connection while the query runs, and the source
// exploits it at admission too.
TEST(TcpAcceptorTest, FeedbackReachesTheProducerSocket) {
  const int kN = 80;
  ProducerStream s = MakeProducerStream(3, kN, 33, 8);  // b = 0..79
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ASSERT_TRUE(acceptor.Listen().ok());

  // The sink plays the interactive application: after the 10th result
  // it declares the high-b subset unwanted.
  int seen = 0;
  auto driver = [&seen](const Tuple&,
                        TimeMs) -> std::vector<FeedbackPunctuation> {
    if (++seen == 10) return {testing_util::FB("~[*,*,>=60]")};
    return {};
  };
  IngestSourceOptions sopts;
  sopts.expected_eos_producers = 1;
  auto p = MakeIngestPlan(&conduit, sopts, driver);
  PooledExecutorOptions eopts;
  eopts.pool_size = 2;
  PooledExecutor exec(eopts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Send enough to trip the sink's trigger, but keep the stream OPEN:
  // the source parks idle, the sink's feedback wakes it on the control
  // path, and the frame crosses the socket while the query runs.
  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  const size_t half = s.frames.size() / 2;
  WriteAllFd(fd.value(), s.hello);
  for (size_t i = 0; i < half; ++i) WriteAllFd(fd.value(), s.frames[i]);

  FrameType got = FrameType::kEos;
  std::string payload;
  std::string rbuf;
  ASSERT_TRUE(ReadFrameOfType(
      fd.value(), {FrameType::kFeedback}, &got, &payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(10), &rbuf))
      << "feedback never reached the producer socket";
  FeedbackPunctuation fb;
  ASSERT_TRUE(DecodeFeedback(payload, &fb).ok());
  EXPECT_TRUE(fb.is_assumed());
  EXPECT_EQ(fb.pattern().ToString(),
            testing_util::FB("~[*,*,>=60]").pattern().ToString());

  // Now finish the stream and drain the query.
  for (size_t i = half; i < s.frames.size(); ++i) {
    WriteAllFd(fd.value(), s.frames[i]);
  }
  FinishAndClose(fd.value());
  Status st = exec.Wait(id.value());
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The source exploited the feedback too: the guard sits at the edge
  // and dropped every post-feedback tuple it matched.
  EXPECT_EQ(p.source->admission_guards().size(), 1);
  EXPECT_EQ(p.sink->consumed() + p.source->stats().input_guard_drops,
            static_cast<uint64_t>(kN));
  EXPECT_GE(p.sink->consumed(), 10u);
  acceptor.Stop();
}

// A producer that stops reading must not grow engine memory: past
// kMaxUnsentBytes unsent on its connection, advisory frames are
// dropped and counted, and Stop() still returns promptly.
TEST(TcpAcceptorTest, UnreadFeedbackIsCappedAndStopDoesNotHang) {
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  ASSERT_TRUE(acceptor.Listen().ok());

  // No executor and no reads: the producer says hello, then the kernel
  // buffers fill with feedback nobody drains.
  constexpr uint64_t kProducer = 6;
  Result<int> fd = TcpConnectLoopback(acceptor.port());
  ASSERT_TRUE(fd.ok());
  std::string hello;
  AppendHelloFrame(&hello, 3, kProducer, 0);
  WriteAllFd(fd.value(), hello);

  std::string frame;
  AppendFeedbackFrame(&frame, testing_util::FB("~[*,*,>=1]"));
  auto flood = [&] {
    for (int i = 0; i < 256; ++i) {
      conduit.PushFeedbackFrameTo(kProducer, frame);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (acceptor.StatsReport().advisory_drops == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    flood();
  }
  for (int i = 0; i < 20; ++i) flood();  // the cap holds under pressure

  AcceptorStats stats = acceptor.StatsReport();
  ASSERT_GT(stats.advisory_drops, 0u) << "unread feedback was never capped";
  ASSERT_EQ(stats.connections.size(), 1u);
  const AcceptorConnStats& conn = stats.connections[0];
  EXPECT_EQ(conn.producer, kProducer);
  EXPECT_EQ(conn.advisory_drops, stats.advisory_drops);
  EXPECT_LE(conn.unsent_bytes, TcpAcceptor::kMaxUnsentBytes + frame.size());
  EXPECT_GT(conn.feedback_out, 0u);

  // The serving thread never blocks on the full socket, so Stop() joins
  // at once.
  const auto t0 = std::chrono::steady_clock::now();
  acceptor.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  ::close(fd.value());
}

}  // namespace
}  // namespace nstream
