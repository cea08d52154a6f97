// TcpAcceptor: the fault-tolerant serving edge. One poll(2)-driven
// thread accepts N producer connections on a loopback listening
// socket and fans them into ONE FrameConduit as whole tagged frames
// (MuxFrame) — frames interleave across producers, bytes never do,
// because each connection assembles its own frames before forwarding.
//
// Robustness properties, each exercised by the seeded fault-injection
// harness (tests/testing/net_fault.h):
//
//   Quarantine — a connection that violates framing (bad magic,
//   oversized size field, unknown type, pre-hello data) is cut off
//   ALONE: it gets a kError frame, its socket closes once that frame
//   flushes, and the acceptor forwards the same kError into the
//   conduit so the IngestSource counts the session done. Healthy
//   producers on the same acceptor keep flowing — errors isolate per
//   connection, never per query.
//
//   Session resume — a producer reconnects with its id and the frame
//   offset it intends to resume from; the engine replies kHelloAck
//   with its acknowledged offset, duplicates are skipped engine-side,
//   and a resume PAST the acknowledged offset (a gap) is quarantined.
//   The acceptor's part is bookkeeping: re-binding the producer id to
//   the new socket (newest wins) and counting reconnects.
//
//   Liveness — the acceptor sends kHeartbeat frames on idle
//   connections and closes connections that have been silent past the
//   idle timeout (the producer may reconnect and resume).
//
//   Backpressure + shedding — a frame the conduit's mux budget
//   rejects parks on its connection and pauses POLLIN there (the
//   kernel socket buffer then pushes back on that producer alone).
//   The conduit writes the acceptor's eventfd once the source has
//   drained room for the parked frame, so reads resume on the drain,
//   not on a timer;
//   sustained pressure broadcasts kShed advice, escalating from
//   slow-down to drop-subset, with a cooldown so producers are not
//   spammed.
//
//   Bounded send side — a producer that stops reading cannot grow
//   engine memory: past kMaxUnsentBytes unsent on its connection,
//   advisory frames (feedback, heartbeat, shed) are dropped and
//   counted. kError and kHelloAck are always queued.
//
// All socket I/O goes through the NetIo seam so tests inject partial
// reads/writes, EINTR, ECONNRESET, and delays deterministically.

#ifndef NSTREAM_INGEST_TCP_ACCEPTOR_H_
#define NSTREAM_INGEST_TCP_ACCEPTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "ingest/frame_conduit.h"

namespace nstream {

/// Syscall seam: every byte the acceptor moves crosses Read/Send, so
/// the fault harness can subclass and misbehave deterministically.
/// The default implementation is the real thing (send with
/// MSG_NOSIGNAL | MSG_DONTWAIT, write(2) fallback for non-sockets).
class NetIo {
 public:
  virtual ~NetIo() = default;
  virtual ssize_t Read(int fd, char* buf, size_t n);
  virtual ssize_t Send(int fd, const char* p, size_t n);
};

struct TcpAcceptorOptions {
  /// Connections past this are accepted and immediately closed.
  int max_connections = 16;
  /// poll(2) timeout: paces heartbeats, idle checks and shed advice.
  /// Socket events, a conduit drain, queued feedback and Stop() all
  /// wake the serving thread through its descriptors instead.
  int poll_interval_ms = 2;
  /// Send a kHeartbeat on each connection this often (0 = never).
  int64_t heartbeat_interval_ms = 0;
  /// Close a connection silent for longer than this (0 = never). The
  /// producer may reconnect and resume.
  int64_t idle_timeout_ms = 0;
  /// Minimum gap between kShed broadcasts under sustained pressure.
  int64_t shed_cooldown_ms = 50;
  /// Injection point; null = real syscalls.
  NetIo* io = nullptr;
};

struct AcceptorConnStats {
  uint64_t producer = 0;  // 0 until the hello names the session
  uint64_t frames_in = 0;
  uint64_t bytes_in = 0;
  uint64_t feedback_out = 0;
  uint64_t heartbeats_out = 0;
  /// Engine → producer bytes queued but not yet accepted by the socket.
  uint64_t unsent_bytes = 0;
  /// Advisory frames dropped because unsent_bytes was past the cap.
  uint64_t advisory_drops = 0;
  bool open = false;
  bool quarantined = false;
};

struct AcceptorStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;  // over max_connections
  uint64_t closed = 0;
  uint64_t quarantined = 0;
  uint64_t reconnects = 0;
  uint64_t idle_closes = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t sheds_sent = 0;
  uint64_t frames_forwarded = 0;
  uint64_t bytes_received = 0;
  uint64_t backpressure_pauses = 0;
  uint64_t advisory_drops = 0;  // summed over connections
  /// Live connections first, then closed ones (bounded history).
  std::vector<AcceptorConnStats> connections;

  std::string ToString() const;
};

class TcpAcceptor {
 public:
  /// Unsent engine → producer bytes one connection may hold before
  /// advisory frames to it are dropped.
  static constexpr size_t kMaxUnsentBytes = 64 * 1024;

  /// `conduit` and everything in `opts` must outlive the acceptor.
  explicit TcpAcceptor(FrameConduit* conduit, TcpAcceptorOptions opts = {});
  ~TcpAcceptor();

  TcpAcceptor(const TcpAcceptor&) = delete;
  TcpAcceptor& operator=(const TcpAcceptor&) = delete;

  /// Bind 127.0.0.1 on an ephemeral port, listen, attach a wake
  /// eventfd to the conduit, start the serving thread. port() is valid
  /// afterwards.
  Status Listen();
  int port() const { return port_; }

  /// Close every connection and the listener, join the thread, detach
  /// and close the wake eventfd, and close the conduit's write side
  /// (the source drains what was forwarded, then ends). Idempotent;
  /// the destructor calls it.
  void Stop();

  /// Thread-safe snapshot of counters + per-connection breakdown.
  AcceptorStats StatsReport() const;

 private:
  struct Conn {
    int fd = -1;
    uint64_t producer = 0;
    bool hello_done = false;
    std::string inbuf;   // bytes read, frames not yet assembled
    std::string outbuf;  // engine → producer bytes not yet sent
    bool close_after_flush = false;  // quarantine: error frame first
    bool quarantined = false;
    // A complete frame the conduit's mux budget rejected: POLLIN is
    // paused on this connection until the conduit accepts it.
    std::string pending_frame;
    bool has_pending = false;
    bool pending_is_hello = false;
    TimeMs last_recv_ms = 0;
    TimeMs last_heartbeat_ms = 0;
    uint64_t frames_in = 0;
    uint64_t bytes_in = 0;
    uint64_t feedback_out = 0;
    uint64_t heartbeats_out = 0;
    uint64_t advisory_drops = 0;
  };

  void Run();
  void AcceptNew();
  /// Read available bytes, assemble + forward complete frames. False
  /// if the connection should close (peer gone or quarantined).
  bool ServiceRead(Conn* c);
  bool AssembleAndForward(Conn* c);
  /// Hello bookkeeping: producer id mapping, reconnect counting.
  bool HandleHello(Conn* c, std::string_view payload);
  /// Forward one whole frame; parks it in pending on budget rejection.
  bool ForwardFrame(Conn* c, std::string frame, bool is_hello);
  /// kError to the peer + notice into the conduit + close after flush.
  void Quarantine(Conn* c, const std::string& reason);
  void DeliverFeedback();
  void MaybeHeartbeatAndIdle(TimeMs now);
  void MaybeShed(TimeMs now);
  /// Queue an advisory frame (feedback, heartbeat, shed) on `c`, or
  /// drop and count it when `c` already holds kMaxUnsentBytes unsent.
  bool QueueAdvisory(Conn* c, std::string_view frame);
  /// Send what the socket takes and keep only the unsent rest; false
  /// if the peer is gone.
  bool FlushOut(Conn* c);
  AcceptorConnStats ConnStats(const Conn& c, bool open) const;
  void CloseConn(size_t idx);

  FrameConduit* conduit_;
  TcpAcceptorOptions opts_;
  NetIo* io_;  // opts_.io or &default_io_
  WallClock clock_;
  std::unique_ptr<NetIo> default_io_;

  int listen_fd_ = -1;
  // Polled beside the sockets; written by the conduit (a refused frame
  // fits, feedback queued) and by Stop().
  int wake_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;

  mutable std::mutex mu_;  // guards conns_ + stats_ (loop vs StatsReport)
  std::vector<std::unique_ptr<Conn>> conns_;
  AcceptorStats stats_;
  std::vector<AcceptorConnStats> closed_history_;  // bounded
  std::set<uint64_t> seen_producers_;  // a repeat hello = a reconnect
  // Hello-acks pop out of the conduit in per-producer hello order, so
  // matching the ack ordinal against the count of forwarded hellos
  // tells stale acks (addressed to a session that died before its ack
  // came back) from the one the CURRENT session is waiting for.
  std::map<uint64_t, uint64_t> hellos_forwarded_;
  std::map<uint64_t, uint64_t> acks_routed_;
  TimeMs last_shed_ms_ = -1;
  int shed_rounds_ = 0;
};

/// Test/bench helper: blocking connect to 127.0.0.1:`port`. The fd is
/// the caller's to close.
Result<int> TcpConnectLoopback(int port);

}  // namespace nstream

#endif  // NSTREAM_INGEST_TCP_ACCEPTOR_H_
