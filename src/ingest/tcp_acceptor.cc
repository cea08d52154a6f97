#include "ingest/tcp_acceptor.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ingest/wire_format.h"

namespace nstream {

namespace {
// Per connection per round: read at most this many chunks so one
// firehose producer cannot starve its neighbors' service.
constexpr int kMaxReadsPerRound = 16;
constexpr size_t kReadChunk = 16 * 1024;
// Closed-connection stats kept for StatsReport.
constexpr size_t kMaxClosedHistory = 64;
// Run()'s pollfd layout: the listener, the wake eventfd, then one per
// connection.
constexpr size_t kFirstConnPfd = 2;

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}
}  // namespace

ssize_t NetIo::Read(int fd, char* buf, size_t n) {
  return ::read(fd, buf, n);
}

ssize_t NetIo::Send(int fd, const char* p, size_t n) {
  // MSG_DONTWAIT keeps even a blocking fd from wedging the serving
  // thread (POLLOUT only promises SOME space, not `n` bytes of it).
  ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL | MSG_DONTWAIT);
  if (r < 0 && errno == ENOTSOCK) r = ::write(fd, p, n);
  return r;
}

std::string AcceptorStats::ToString() const {
  std::string s = "accepted=" + std::to_string(accepted) +
                  " closed=" + std::to_string(closed) +
                  " quarantined=" + std::to_string(quarantined) +
                  " reconnects=" + std::to_string(reconnects) +
                  " idle_closes=" + std::to_string(idle_closes) +
                  " frames=" + std::to_string(frames_forwarded) +
                  " bytes=" + std::to_string(bytes_received) +
                  " heartbeats=" + std::to_string(heartbeats_sent) +
                  " sheds=" + std::to_string(sheds_sent) +
                  " pauses=" + std::to_string(backpressure_pauses) +
                  " advisory_drops=" + std::to_string(advisory_drops);
  for (const AcceptorConnStats& c : connections) {
    s += "\n  producer=" + std::to_string(c.producer) +
         (c.open ? " open" : " closed") +
         (c.quarantined ? " QUARANTINED" : "") +
         " frames_in=" + std::to_string(c.frames_in) +
         " bytes_in=" + std::to_string(c.bytes_in) +
         " feedback_out=" + std::to_string(c.feedback_out) +
         " heartbeats_out=" + std::to_string(c.heartbeats_out) +
         " unsent=" + std::to_string(c.unsent_bytes) +
         " advisory_drops=" + std::to_string(c.advisory_drops);
  }
  return s;
}

TcpAcceptor::TcpAcceptor(FrameConduit* conduit, TcpAcceptorOptions opts)
    : conduit_(conduit), opts_(opts) {
  if (opts_.io == nullptr) {
    default_io_ = std::make_unique<NetIo>();
    io_ = default_io_.get();
  } else {
    io_ = opts_.io;
  }
  if (opts_.clock == nullptr) {
    default_clock_ = std::make_unique<WallClock>();
    clock_ = default_clock_.get();
  } else {
    clock_ = opts_.clock;
  }
}

TcpAcceptor::~TcpAcceptor() { Stop(); }

Status TcpAcceptor::Listen() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("acceptor: already listening");
  }
  const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake < 0) return Status::Internal("acceptor: eventfd() failed");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ::close(wake);
    return Status::Internal("acceptor: socket() failed");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    ::close(wake);
    return Status::Internal("acceptor: bind() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
          0 ||
      ::listen(fd, 64) != 0 || !SetNonBlocking(fd)) {
    ::close(fd);
    ::close(wake);
    return Status::Internal("acceptor: listen() failed");
  }
  listen_fd_ = fd;
  wake_fd_ = wake;
  conduit_->SetProducerWakeFd(wake_fd_);
  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void TcpAcceptor::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  if (wake_fd_ >= 0) {
    // Detach first: the conduit writes the fd under its lock, so once
    // this returns no write can land on a closed (or reused) number.
    conduit_->SetProducerWakeFd(-1);
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

AcceptorStats TcpAcceptor::StatsReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  AcceptorStats out = stats_;
  out.connections.clear();
  for (const auto& c : conns_) {
    out.connections.push_back(ConnStats(*c, /*open=*/true));
  }
  out.connections.insert(out.connections.end(), closed_history_.begin(),
                         closed_history_.end());
  return out;
}

void TcpAcceptor::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<struct pollfd> pfds;
    size_t polled_conns = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfds.push_back({wake_fd_, POLLIN, 0});
      polled_conns = conns_.size();
      for (const auto& c : conns_) {
        short ev = 0;
        // A parked frame (mux budget) or a pending close pauses reads:
        // the kernel buffer fills and THAT producer's send() blocks —
        // per-connection backpressure, nobody else slows down.
        if (!c->has_pending && !c->close_after_flush) ev |= POLLIN;
        if (!c->outbuf.empty()) ev |= POLLOUT;
        pfds.push_back({c->fd, ev, 0});
      }
    }
    int pr = ::poll(pfds.data(), pfds.size(), opts_.poll_interval_ms);
    if (pr < 0 && errno != EINTR) break;  // poll itself broken: give up

    if ((pfds[1].revents & POLLIN) != 0) {
      // Reset the counter; this round does whatever the signals asked.
      uint64_t signals = 0;
      [[maybe_unused]] ssize_t n =
          ::read(wake_fd_, &signals, sizeof(signals));
    }

    std::lock_guard<std::mutex> lock(mu_);
    const TimeMs now = clock_->NowMs();
    if ((pfds[0].revents & POLLIN) != 0) AcceptNew();

    // Un-park frames the conduit now has budget for, then resume
    // assembling whatever piled up in that connection's inbuf. A
    // refused frame re-arms the conduit's wake for when it fits.
    for (auto& c : conns_) {
      if (!c->has_pending) continue;
      if (conduit_->OfferMuxFrame(c->producer, c->pending_frame)) {
        ++stats_.frames_forwarded;
        if (c->pending_is_hello) ++hellos_forwarded_[c->producer];
        c->pending_frame.clear();
        c->has_pending = false;
        c->pending_is_hello = false;
        AssembleAndForward(c.get());
      }
    }

    std::vector<size_t> doomed;
    for (size_t i = 0; i < polled_conns && i < conns_.size(); ++i) {
      Conn* c = conns_[i].get();
      const short re = pfds[i + kFirstConnPfd].revents;
      if ((re & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !c->close_after_flush) {
        if (!ServiceRead(c)) doomed.push_back(i);
      }
    }

    DeliverFeedback();
    MaybeHeartbeatAndIdle(now);
    MaybeShed(now);

    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn* c = conns_[i].get();
      if (!FlushOut(c)) doomed.push_back(i);
      else if (c->close_after_flush && c->outbuf.empty()) {
        doomed.push_back(i);
      }
    }
    std::sort(doomed.begin(), doomed.end());
    doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
      CloseConn(*it);
    }
  }
  // Serving is over: close everything and end the stream — the source
  // drains what was already forwarded, then reports exhaustion.
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!conns_.empty()) CloseConn(conns_.size() - 1);
  }
  conduit_->CloseWrite();
}

void TcpAcceptor::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: next round
    }
    if (static_cast<int>(conns_.size()) >= opts_.max_connections ||
        !SetNonBlocking(fd)) {
      ::close(fd);
      ++stats_.rejected;
      continue;
    }
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->last_recv_ms = clock_->NowMs();
    c->last_heartbeat_ms = c->last_recv_ms;
    conns_.push_back(std::move(c));
    ++stats_.accepted;
  }
}

bool TcpAcceptor::ServiceRead(Conn* c) {
  char buf[kReadChunk];
  for (int i = 0; i < kMaxReadsPerRound; ++i) {
    ssize_t n = io_->Read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      c->inbuf.append(buf, static_cast<size_t>(n));
      c->bytes_in += static_cast<uint64_t>(n);
      stats_.bytes_received += static_cast<uint64_t>(n);
      c->last_recv_ms = clock_->NowMs();
      AssembleAndForward(c);
      if (c->has_pending || c->close_after_flush) break;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return false;  // peer closed (maybe mid-frame): drop conn
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // ECONNRESET and friends: the producer may reconnect
  }
  return true;
}

bool TcpAcceptor::AssembleAndForward(Conn* c) {
  size_t off = 0;
  while (!c->has_pending && !c->close_after_flush) {
    FrameView f;
    size_t consumed = 0;
    Status s = ScanFrame(std::string_view(c->inbuf).substr(off), &f,
                         &consumed);
    if (!s.ok()) {
      // Framing violation: this connection is done, its neighbors are
      // not. Everything already forwarded stands (whole valid frames).
      Quarantine(c, s.message());
      break;
    }
    if (consumed == 0) break;  // partial frame: wait for more bytes
    ++c->frames_in;
    if (f.type == FrameType::kHeartbeat) {
      off += consumed;  // liveness ping: consumed here, never forwarded
      continue;
    }
    if (!c->hello_done) {
      if (f.type != FrameType::kHello) {
        Quarantine(c, "first frame must be hello");
        break;
      }
      if (!HandleHello(c, f.payload)) break;
    }
    std::string frame = c->inbuf.substr(off, consumed);
    off += consumed;
    ForwardFrame(c, std::move(frame), f.type == FrameType::kHello);
  }
  c->inbuf.erase(0, off);
  return true;
}

bool TcpAcceptor::HandleHello(Conn* c, std::string_view payload) {
  uint32_t version = 0;
  uint32_t arity = 0;
  uint64_t producer = 0;
  uint64_t resume = 0;
  Status s = DecodeHello(payload, &version, &arity, &producer, &resume);
  if (!s.ok()) {
    Quarantine(c, s.message());
    return false;
  }
  if (producer == 0) {
    // 0 is the broadcast routing target; an anonymous producer cannot
    // participate in per-connection feedback or session resume.
    Quarantine(c, "producer id 0 is reserved");
    return false;
  }
  // Version/arity are the IngestSource's call (it knows the schema and
  // quarantines the session itself); the acceptor only needs identity.
  for (auto& other : conns_) {
    if (other.get() != c && other->producer == producer) {
      // Newest wins: the old socket for this producer is stale (the
      // producer crashed or gave up on it) — flush and close it.
      other->close_after_flush = true;
    }
  }
  if (!seen_producers_.insert(producer).second) ++stats_.reconnects;
  c->producer = producer;
  c->hello_done = true;
  return true;
}

bool TcpAcceptor::ForwardFrame(Conn* c, std::string frame, bool is_hello) {
  if (conduit_->OfferMuxFrame(c->producer, frame)) {
    ++stats_.frames_forwarded;
    if (is_hello) ++hellos_forwarded_[c->producer];
    return true;
  }
  c->pending_frame = std::move(frame);
  c->has_pending = true;
  c->pending_is_hello = is_hello;
  ++stats_.backpressure_pauses;
  return false;
}

void TcpAcceptor::Quarantine(Conn* c, const std::string& reason) {
  if (c->quarantined) return;
  c->quarantined = true;
  c->close_after_flush = true;
  c->has_pending = false;
  c->pending_frame.clear();
  ++stats_.quarantined;
  std::string err;
  AppendErrorFrame(&err, "acceptor: " + reason);
  c->outbuf += err;  // the peer learns why before the close
  if (c->hello_done) {
    // The source must learn the session died at the transport, or an
    // expected-EOS count would wait forever on this producer. Budget-
    // exempt: a control frame, and the session is over regardless.
    conduit_->ForceMuxFrame(c->producer, std::move(err));
  }
}

void TcpAcceptor::DeliverFeedback() {
  while (std::optional<RoutedFeedback> fb =
             conduit_->TryPopRoutedFeedback()) {
    FrameView f;
    size_t consumed = 0;
    const bool framed = ScanFrame(fb->bytes, &f, &consumed).ok() &&
                        consumed == fb->bytes.size();
    const bool is_error = framed && f.type == FrameType::kError;
    const bool is_ack = framed && f.type == FrameType::kHelloAck;
    if (is_ack && fb->target != 0) {
      // The Nth ack answers the Nth forwarded hello. An earlier one is
      // addressed to a session that died before its ack came back —
      // delivering it to the CURRENT session would hand the producer a
      // stale (lower) offset and provoke pointless resends.
      const uint64_t ordinal = ++acks_routed_[fb->target];
      if (ordinal < hellos_forwarded_[fb->target]) continue;
    }
    for (auto& c : conns_) {
      if (!c->hello_done) continue;
      if (fb->target != 0 && c->producer != fb->target) continue;
      if (c->close_after_flush && !is_error) continue;
      if (c->has_pending && c->pending_is_hello) continue;
      // Errors and acks are the session's control plane (one each per
      // session), so the unsent cap never drops them.
      if (is_error || is_ack) {
        c->outbuf += fb->bytes;
      } else if (!QueueAdvisory(c.get(), fb->bytes)) {
        continue;
      }
      ++c->feedback_out;
      if (is_error) {
        // Engine-side quarantine (bad payload, protocol violation):
        // the error frame flushes, then the connection closes.
        c->close_after_flush = true;
        if (!c->quarantined) {
          c->quarantined = true;
          ++stats_.quarantined;
        }
      }
    }
  }
}

void TcpAcceptor::MaybeHeartbeatAndIdle(TimeMs now) {
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn* c = conns_[i].get();
    if (c->close_after_flush) continue;
    if (opts_.heartbeat_interval_ms > 0 &&
        now - c->last_heartbeat_ms >= opts_.heartbeat_interval_ms) {
      std::string hb;
      AppendHeartbeatFrame(&hb);
      c->last_heartbeat_ms = now;
      if (QueueAdvisory(c, hb)) {
        ++c->heartbeats_out;
        ++stats_.heartbeats_sent;
      }
    }
    if (c->has_pending) {
      // Reads are paused because the conduit is at its budget, not
      // because the producer went quiet: paused time is not silence.
      c->last_recv_ms = now;
    } else if (opts_.idle_timeout_ms > 0 &&
               now - c->last_recv_ms > opts_.idle_timeout_ms) {
      // Silent too long: reclaim the slot. Not a quarantine — the
      // producer is welcome to reconnect and resume its session.
      ++stats_.idle_closes;
      c->close_after_flush = true;
    }
  }
}

void TcpAcceptor::MaybeShed(TimeMs now) {
  bool pressure =
      conduit_->mux_queued_bytes() * 4 >= conduit_->mux_budget_bytes() * 3;
  if (!pressure) {
    for (const auto& c : conns_) {
      if (c->has_pending) {
        pressure = true;
        break;
      }
    }
  }
  if (!pressure) {
    shed_rounds_ = 0;
    return;
  }
  if (last_shed_ms_ >= 0 && now - last_shed_ms_ < opts_.shed_cooldown_ms) {
    return;
  }
  last_shed_ms_ = now;
  ++shed_rounds_;
  // Escalation: ask producers to pace themselves first; if pressure
  // survives several rounds of that, ask them to thin the stream.
  const bool escalate = shed_rounds_ > opts_.shed_escalate_after;
  std::string shed;
  AppendShedFrame(&shed,
                  escalate ? ShedIntent::kDropSubset : ShedIntent::kSlowDown,
                  escalate ? 250u
                           : static_cast<uint32_t>(
                                 std::max(1, opts_.poll_interval_ms * 4)));
  for (auto& c : conns_) {
    if (!c->hello_done || c->close_after_flush) continue;
    QueueAdvisory(c.get(), shed);
  }
  ++stats_.sheds_sent;
}

bool TcpAcceptor::QueueAdvisory(Conn* c, std::string_view frame) {
  if (c->outbuf.size() > kMaxUnsentBytes) {
    // The peer is not reading: newer advice is worth no more memory.
    ++c->advisory_drops;
    ++stats_.advisory_drops;
    return false;
  }
  c->outbuf.append(frame);
  return true;
}

bool TcpAcceptor::FlushOut(Conn* c) {
  size_t sent = 0;
  bool alive = true;
  while (sent < c->outbuf.size()) {
    ssize_t n = io_->Send(c->fd, c->outbuf.data() + sent,
                          c->outbuf.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    alive = false;  // peer gone: drop the rest
    break;
  }
  // Keep only the unsent tail, so outbuf holds exactly what the cap
  // counts even for a peer that reads slowly and never catches up.
  c->outbuf.erase(0, sent);
  return alive;
}

AcceptorConnStats TcpAcceptor::ConnStats(const Conn& c, bool open) const {
  AcceptorConnStats cs;
  cs.producer = c.producer;
  cs.frames_in = c.frames_in;
  cs.bytes_in = c.bytes_in;
  cs.feedback_out = c.feedback_out;
  cs.heartbeats_out = c.heartbeats_out;
  cs.unsent_bytes = c.outbuf.size();
  cs.advisory_drops = c.advisory_drops;
  cs.open = open;
  cs.quarantined = c.quarantined;
  return cs;
}

void TcpAcceptor::CloseConn(size_t idx) {
  Conn* c = conns_[idx].get();
  closed_history_.push_back(ConnStats(*c, /*open=*/false));
  if (closed_history_.size() > kMaxClosedHistory) {
    closed_history_.erase(closed_history_.begin());
  }
  ::close(c->fd);
  conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(idx));
  ++stats_.closed;
}

Result<int> TcpConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("connect: socket() failed");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return Status::Internal("connect: cannot reach 127.0.0.1:" +
                            std::to_string(port));
  }
  return fd;
}

}  // namespace nstream
