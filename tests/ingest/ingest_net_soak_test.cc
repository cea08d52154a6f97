// Seeded multi-producer soak against the TCP serving edge with
// network faults injected on the engine side (tests/testing/net_fault.h)
// and producer crashes injected on the client side: every producer
// repeatedly disconnects — sometimes mid-frame — reconnects with
// ReconnectBackoff pacing, and resumes from the engine-acknowledged
// offset. The contract under all of it, for every seed:
//
//   - the query completes (no hangs, no quarantines),
//   - the collected output is EXACTLY the union of the producers'
//     streams (at-least-once delivery + engine-side dedup = exactly
//     the multiset),
//   - per-producer arrival order survives.
//
// A failure replays from its seed number alone.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ingest_test_util.h"
#include "testing/net_fault.h"

namespace nstream {
namespace {

using testing_util::MakeIngestPlan;
using testing_util::MakeProducerStream;
using testing_util::ProducerStream;
using testing_util::TupleStrings;

using SteadyTime = std::chrono::steady_clock::time_point;

/// Best-effort full send: false the moment the socket breaks (the
/// soak EXPECTS broken sockets — the producer just reconnects).
bool TrySendAll(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Read whole frames until one of type `want` arrives (heartbeats,
/// sheds, stale feedback are consumed), the deadline passes, or the
/// peer closes.
bool ReadFrame(int fd, FrameType want, std::string* payload,
               SteadyTime deadline, std::string* buf) {
  for (;;) {
    FrameView f;
    size_t consumed = 0;
    if (ScanFrame(*buf, &f, &consumed).ok() && consumed > 0) {
      const FrameType t = f.type;
      std::string p(f.payload);
      buf->erase(0, consumed);
      if (t == want) {
        *payload = std::move(p);
        return true;
      }
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    char tmp[4096];
    ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n > 0) {
      buf->append(tmp, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
}

/// Graceful half-close + drain (an abrupt close() is a simulated
/// crash: the RST may discard data the acceptor has not read yet).
void FinishAndClose(int fd, SteadyTime deadline) {
  ::shutdown(fd, SHUT_WR);
  char tmp[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n == 0) break;
    if (n < 0 && errno != EINTR) break;
  }
  ::close(fd);
}

/// One producer's life: connect → hello(resume = last acknowledged) →
/// read the fresh ack → send frames FROM THE RESUME OFFSET (the wire
/// contract: the ack informs the NEXT session's resume, the current
/// session must cover everything it declared) → crash at seeded
/// points, sometimes mid-frame → reconnect with backoff. After a
/// session survives to the end of the stream, a confirm hello on the
/// SAME connection asks for the engine's word; the producer is done
/// only once an ack covers every frame.
void RunProducer(const ProducerStream& s, int port, uint64_t seed,
                 SteadyTime deadline, bool* completed) {
  Rng rng(seed);
  ReconnectBackoffOptions bopts;
  bopts.base_delay_ms = 1;
  bopts.max_delay_ms = 20;
  bopts.seed = seed ^ 0x9e3779b97f4a7c15ull;
  ReconnectBackoff backoff(bopts);
  uint64_t last_ack = 0;

  while (std::chrono::steady_clock::now() < deadline) {
    Result<int> fd = TcpConnectLoopback(port);
    if (!fd.ok()) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff.NextDelayMs()));
      continue;
    }
    const uint64_t resume = last_ack;
    std::string hello;
    AppendHelloFrame(&hello, 3, s.producer, resume);
    std::string rbuf;
    std::string payload;
    uint64_t ack = 0;
    if (!TrySendAll(fd.value(), hello) ||
        !ReadFrame(fd.value(), FrameType::kHelloAck, &payload,
                   std::chrono::steady_clock::now() +
                       std::chrono::seconds(2),
                   &rbuf) ||
        !DecodeHelloAck(payload, &ack).ok()) {
      ::close(fd.value());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff.NextDelayMs()));
      continue;
    }
    backoff.Reset();
    last_ack = ack;  // the engine's word beats our local cursor
    if (ack >= s.frames.size()) {
      FinishAndClose(fd.value(), deadline);
      *completed = true;
      return;
    }
    bool crashed = false;
    for (size_t i = resume; i < s.frames.size(); ++i) {
      const std::string& f = s.frames[i];
      if (rng.NextBernoulli(0.05)) {
        // Simulated crash; half the time mid-frame, so the acceptor
        // sees a torn prefix it must discard on disconnect.
        if (f.size() > 1 && rng.NextBernoulli(0.5)) {
          (void)TrySendAll(fd.value(),
                           std::string_view(f).substr(
                               0, 1 + rng.NextBounded(f.size() - 1)));
        }
        ::close(fd.value());
        crashed = true;
        break;
      }
      if (!TrySendAll(fd.value(), f)) {
        ::close(fd.value());
        crashed = true;
        break;
      }
    }
    if (!crashed) {
      // Confirm in-session: the hello rides the same ordered byte
      // stream as the frames before it, so its ack is proof they all
      // landed — no reconnect round-trip in the fault-free case.
      std::string confirm;
      AppendHelloFrame(&confirm, 3, s.producer,
                       static_cast<uint64_t>(s.frames.size()));
      rbuf.clear();
      if (TrySendAll(fd.value(), confirm) &&
          ReadFrame(fd.value(), FrameType::kHelloAck, &payload,
                    std::chrono::steady_clock::now() +
                        std::chrono::seconds(2),
                    &rbuf) &&
          DecodeHelloAck(payload, &ack).ok() && ack >= s.frames.size()) {
        FinishAndClose(fd.value(), deadline);
        *completed = true;
        return;
      }
      ::close(fd.value());
    }
    // Either way: reconnect and let the next ack say where we stand.
  }
}

TEST(IngestNetSoakTest, SeededFaultySoakDeliversExactlyOnce) {
  constexpr int kSeeds = 8;
  constexpr int kProducers = 3;
  uint64_t faults_total = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SteadyTime deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);

    FrameConduit conduit;
    NetFaultOptions fopts;
    fopts.seed = seed;
    fopts.p_reset = 0.02;  // engine-side resets force live resumes
    FaultyNetIo io(fopts);
    TcpAcceptorOptions aopts;
    aopts.io = &io;
    aopts.heartbeat_interval_ms = 10;  // noise the producers must skip
    TcpAcceptor acceptor(&conduit, aopts);
    ASSERT_TRUE(acceptor.Listen().ok());

    // No expected-EOS count: the soak ends the stream by stopping the
    // acceptor once every producer has CONFIRMED its stream landed, so
    // the source stays alive to ack however many reconnects the
    // faults force. (Exhaust-on-EOS-count is the other tests' job.)
    IngestSourceOptions sopts;
    auto p = MakeIngestPlan(&conduit, sopts);
    PooledExecutorOptions eopts;
    eopts.pool_size = 2;
    PooledExecutor exec(eopts);
    Result<QueryId> id = exec.Submit(p.plan.get());
    ASSERT_TRUE(id.ok()) << id.status().ToString();

    std::vector<ProducerStream> streams;
    std::multiset<std::string> expect;
    for (uint64_t producer = 1; producer <= kProducers; ++producer) {
      streams.push_back(MakeProducerStream(
          producer, 80, seed * 100 + producer, 5));
      for (const Tuple& t : streams.back().tuples) {
        expect.insert(t.ToString());
      }
    }
    bool completed[kProducers] = {false, false, false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kProducers; ++i) {
      threads.emplace_back([&, i] {
        RunProducer(streams[static_cast<size_t>(i)], acceptor.port(),
                    seed * 7919 + static_cast<uint64_t>(i), deadline,
                    &completed[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kProducers; ++i) {
      ASSERT_TRUE(completed[i])
          << "producer " << (i + 1) << " never finished its stream";
    }

    acceptor.Stop();  // every stream confirmed: end the edge
    Status st = exec.Wait(id.value());
    ASSERT_TRUE(st.ok()) << st.ToString();
    // Exactly the union: resume covers every lost frame (at least
    // once), the acknowledged-offset skip removes every duplicate.
    EXPECT_EQ(TupleStrings(p.sink->collected()), expect);
    testing_util::ExpectPerProducerOrder(p.sink->collected());
    EXPECT_EQ(p.source->quarantined_producers(), 0u);

    AcceptorStats stats = acceptor.StatsReport();
    EXPECT_GE(stats.accepted, static_cast<uint64_t>(kProducers));
    faults_total += io.eintr_injected() + io.resets_injected() +
                    io.short_reads() + io.short_writes();
  }
  // The harness must actually have misbehaved, or the soak proved
  // nothing about fault tolerance.
  EXPECT_GT(faults_total, 0u);
}

}  // namespace
}  // namespace nstream
