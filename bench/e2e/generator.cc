#include "generator.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>

#include "ingest/tcp_acceptor.h"
#include "ingest/wire_format.h"
#include "serde/serde.h"
#include "stats.h"

namespace nstream::e2e {

namespace {

// A phase that has not ended after this long is abandoned; the
// engine's own watchdog is shorter, so this only fires on a bench bug.
constexpr int64_t kPhaseDeadlineNs = 170'000'000'000LL;
constexpr int kReadyTimeoutMs = 120'000;
constexpr int kReportTimeoutMs = 175'000;

bool WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// Blocking read of exactly n bytes; false on EOF, error or timeout.
bool ReadFull(int fd, void* data, size_t n, int timeout_ms) {
  char* p = static_cast<char*>(data);
  const int64_t deadline = MonoNs() + int64_t{timeout_ms} * 1'000'000;
  while (n > 0) {
    const int64_t left_ms = (deadline - MonoNs()) / 1'000'000;
    if (left_ms <= 0) return false;
    struct pollfd pfd = {fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left_ms));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// ---- the generator process ------------------------------------------

struct Conn {
  int fd = -1;
  // Latency phase: frames come from the source as they fall due.
  std::unique_ptr<FrameSource> src;
  WireFrame next;
  bool has_next = false;
  std::string out;  // encoded, not yet taken by the kernel
  // End offsets in `out` of frames not fully sent.
  std::deque<size_t> inflight;
  // Saturation: the pre-encoded stream, sent straight from memory up to
  // `allowed` bytes.
  const EncodedStream* sat = nullptr;
  size_t allowed = 0;
  size_t off = 0;  // bytes of `out` / `sat` already sent
  std::string in;  // engine → producer bytes not yet parsed
  bool shut = false;
  bool eof = false;
  bool dead = false;  // send failed: the rest of the stream is lost

  size_t unsent() const {
    return (sat != nullptr ? allowed : out.size()) - off;
  }
  bool source_done() const {
    return sat != nullptr ? allowed == sat->bytes.size() : !has_next;
  }
};

// The highest progress the sink reported, reading every report waiting
// in the pipe.
int64_t ReadProgress(int fd, int64_t progress) {
  int64_t buf[512];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return progress;
    for (ssize_t i = 0; i < n / static_cast<ssize_t>(sizeof(int64_t)); ++i) {
      progress = std::max(progress, buf[i]);
    }
  }
}

void HandleEngineFrame(const FrameView& f, GenReport* r) {
  switch (f.type) {
    case FrameType::kFeedback: {
      FeedbackPunctuation fb;
      GenReport::FeedbackRx rx;
      rx.ns = MonoNs();
      rx.window = -1;
      if (DecodeFeedback(f.payload, &fb).ok() && fb.pattern().arity() > 1 &&
          fb.pattern().attr(1).op() == PatternOp::kRange) {
        Result<int64_t> lo = fb.pattern().attr(1).operand().AsInt64();
        if (lo.ok()) rx.window = lo.value() / kWindowMs;
      }
      r->feedback_rx.push_back(rx);
      break;
    }
    case FrameType::kError:
      ++r->errors_rx;
      break;
    default:
      break;  // hello-acks, heartbeats and shed advice need no action
  }
}

// Read and handle whatever the engine sent; sets eof once it closed.
void ServiceRead(Conn* c, GenReport* r) {
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c->eof = true;  // closed (n == 0) or reset
    break;
  }
  size_t off = 0;
  for (;;) {
    FrameView f;
    size_t consumed = 0;
    if (!ScanFrame(std::string_view(c->in).substr(off), &f, &consumed).ok()) {
      ++r->errors_rx;
      c->in.clear();
      return;
    }
    if (consumed == 0) break;
    HandleEngineFrame(f, r);
    off += consumed;
  }
  c->in.erase(0, off);
}

void ServiceWrite(Conn* c, GenReport* r) {
  while (c->unsent() > 0) {
    const char* base =
        c->sat != nullptr ? c->sat->bytes.data() : c->out.data();
    const ssize_t n = ::send(c->fd, base + c->off, c->unsent(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      c->dead = true;
      return;
    }
    const int64_t now = MonoNs();
    if (r->first_send_ns == 0) r->first_send_ns = now;
    c->off += static_cast<size_t>(n);
    while (!c->inflight.empty() && c->inflight.front() <= c->off) {
      c->inflight.pop_front();
      ++r->frames_sent;
    }
    if (c->sat != nullptr && c->off == c->sat->bytes.size()) {
      r->frames_sent += c->sat->frames;
    }
  }
  if (c->sat == nullptr) {
    c->out.clear();
    c->off = 0;
  }
}

GenReport RunPhase(WorkloadKind w, const Sizes& s, uint64_t seed,
                   const std::vector<EncodedStream>& sat, const PhaseCmd& cmd,
                   int prog_fd) {
  GenReport r;
  const PhaseKind kind = static_cast<PhaseKind>(cmd.kind);
  const bool paced = kind != PhaseKind::kSaturation;
  // Reports left over from the previous phase. This phase's sink
  // reports nothing before this process has sent it data.
  (void)ReadProgress(prog_fd, 0);
  int64_t progress = 0;
  const int64_t start = MonoNs();
  std::vector<Conn> conns(static_cast<size_t>(cmd.nconn));
  for (int i = 0; i < cmd.nconn; ++i) {
    Conn& c = conns[static_cast<size_t>(i)];
    Result<int> fd = TcpConnectLoopback(cmd.ports[i]);
    if (!fd.ok()) {
      r.error = fd.status().ToString();
      for (Conn& open : conns) {
        if (open.fd >= 0) ::close(open.fd);
      }
      return r;
    }
    c.fd = fd.value();
    // Frames must leave when they are due, not when Nagle's algorithm
    // has collected a segment.
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    if (paced) {
      c.src = MakeFrameSource(w, s, seed, kind, i);
      c.has_next = c.src->Next(cmd.t0_ns, &c.next);
    } else {
      c.sat = &sat[static_cast<size_t>(i)];
      r.frames_attempted += c.sat->frames;
    }
  }

  std::vector<double> lags;
  std::vector<struct pollfd> pfds;
  for (;;) {
    const int64_t now = MonoNs();
    if (now - start > kPhaseDeadlineNs) {
      r.error = "generator: phase did not finish in time";
      break;
    }
    // The latency phase reads the reports too, so the pipe never fills.
    progress = ReadProgress(prog_fd, progress);
    if (!paced) {
      for (Conn& c : conns) c.allowed = SendableBytes(*c.sat, progress);
    }
    int64_t next_due = INT64_MAX;
    int64_t backlog = 0;
    bool all_eof = true;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      while (c.has_next && cmd.t0_ns + c.next.due_off_ns <= now) {
        // The generator keeps its schedule if it takes each frame up
        // on time; a frame the engine does not read yet waits in `out`
        // (the backlog), which is the engine's delay, not ours.
        lags.push_back(
            static_cast<double>(now - cmd.t0_ns - c.next.due_off_ns) * 1e-6);
        c.out += c.next.bytes;
        c.inflight.push_back(c.out.size());
        if (c.next.punct_window >= 0) {
          r.punct_due.push_back({static_cast<int32_t>(i), c.next.punct_window,
                                 cmd.t0_ns + c.next.due_off_ns});
        }
        ++r.frames_attempted;
        c.has_next = c.src->Next(cmd.t0_ns, &c.next);
      }
      if (!c.dead && !c.shut) ServiceWrite(&c, &r);
      if (!c.shut && (c.dead || (c.source_done() && c.unsent() == 0))) {
        // Graceful end of stream: half-close, then read until the
        // engine closes (an abrupt close would reset the connection
        // and discard frames the acceptor has not read yet).
        ::shutdown(c.fd, SHUT_WR);
        c.shut = true;
      }
      if (c.has_next) {
        next_due = std::min(next_due, cmd.t0_ns + c.next.due_off_ns);
      }
      if (paced) backlog += static_cast<int64_t>(c.unsent());
      all_eof = all_eof && c.eof;
    }
    r.backlog_max_bytes = std::max(r.backlog_max_bytes, backlog);
    if (all_eof) break;

    pfds.clear();
    for (const Conn& c : conns) {
      short ev = c.eof ? 0 : POLLIN;
      if (!c.shut && !c.dead && c.unsent() > 0) ev |= POLLOUT;
      pfds.push_back({c.eof ? -1 : c.fd, ev, 0});
    }
    pfds.push_back({prog_fd, POLLIN, 0});
    int64_t wait_ns = 50'000'000;
    if (next_due != INT64_MAX) {
      wait_ns = std::clamp<int64_t>(next_due - MonoNs(), 0, wait_ns);
    }
    struct timespec ts = {static_cast<time_t>(wait_ns / 1'000'000'000),
                          static_cast<long>(wait_ns % 1'000'000'000)};
    const int pr = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (pr < 0 && errno != EINTR) {
      r.error = std::string("generator: ppoll failed: ") + std::strerror(errno);
      break;
    }
    for (size_t i = 0; pr > 0 && i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ServiceRead(&conns[i], &r);
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);

  if (paced && !lags.empty()) {
    std::sort(lags.begin(), lags.end());
    r.lag_count = static_cast<int64_t>(lags.size());
    r.lag_p99_ms = PercentileSorted(lags, 99);
    const auto late = std::upper_bound(lags.begin(), lags.end(), kLateMs);
    r.late_frac = static_cast<double>(lags.end() - late) /
                  static_cast<double>(lags.size());
  }
  return r;
}

[[noreturn]] void ChildMain(WorkloadKind w, const Sizes& s, uint64_t seed,
                            int cmd_fd, int rep_fd, int prog_fd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<EncodedStream> sat;
  for (int i = 0; i < NumConnections(w); ++i) {
    sat.push_back(EncodeConnection(w, s, seed, PhaseKind::kSaturation, i, 0));
  }
  const char ready = 'r';
  if (!WriteFull(rep_fd, &ready, 1)) ::_exit(1);
  for (;;) {
    PhaseCmd cmd;
    if (!ReadFull(cmd_fd, &cmd, sizeof(cmd), 24 * 3600 * 1000)) ::_exit(1);
    if (cmd.kind == kQuitCmd) ::_exit(0);
    if (cmd.nconn < 1 || cmd.nconn > kMaxConnections) ::_exit(1);
    const std::string rep = RunPhase(w, s, seed, sat, cmd, prog_fd).Encode();
    const uint32_t len = static_cast<uint32_t>(rep.size());
    if (!WriteFull(rep_fd, &len, sizeof(len)) ||
        !WriteFull(rep_fd, rep.data(), rep.size())) {
      ::_exit(1);
    }
  }
}

}  // namespace

std::string GenReport::Encode() const {
  ByteWriter w;
  w.WriteString(error);
  w.WriteI64(first_send_ns);
  w.WriteI64(frames_attempted);
  w.WriteI64(frames_sent);
  w.WriteI64(errors_rx);
  w.WriteI64(lag_count);
  w.WriteDouble(lag_p99_ms);
  w.WriteDouble(late_frac);
  w.WriteI64(backlog_max_bytes);
  w.WriteU64(punct_due.size());
  for (const PunctDue& d : punct_due) {
    w.WriteU32(static_cast<uint32_t>(d.conn));
    w.WriteI64(d.window);
    w.WriteI64(d.due_ns);
  }
  w.WriteU64(feedback_rx.size());
  for (const FeedbackRx& f : feedback_rx) {
    w.WriteI64(f.window);
    w.WriteI64(f.ns);
  }
  return w.Release();
}

Status GenReport::Decode(std::string_view bytes, GenReport* out) {
  ByteReader r(bytes);
  NSTREAM_RETURN_NOT_OK(r.ReadString(&out->error));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&out->first_send_ns));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&out->frames_attempted));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&out->frames_sent));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&out->errors_rx));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&out->lag_count));
  NSTREAM_RETURN_NOT_OK(r.ReadDouble(&out->lag_p99_ms));
  NSTREAM_RETURN_NOT_OK(r.ReadDouble(&out->late_frac));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&out->backlog_max_bytes));
  uint64_t n = 0;
  NSTREAM_RETURN_NOT_OK(r.ReadU64(&n));
  if (n > r.remaining()) return Status::InvalidArgument("report: bad count");
  out->punct_due.resize(n);
  for (PunctDue& d : out->punct_due) {
    uint32_t conn = 0;
    NSTREAM_RETURN_NOT_OK(r.ReadU32(&conn));
    d.conn = static_cast<int32_t>(conn);
    NSTREAM_RETURN_NOT_OK(r.ReadI64(&d.window));
    NSTREAM_RETURN_NOT_OK(r.ReadI64(&d.due_ns));
  }
  NSTREAM_RETURN_NOT_OK(r.ReadU64(&n));
  if (n > r.remaining()) return Status::InvalidArgument("report: bad count");
  out->feedback_rx.resize(n);
  for (FeedbackRx& f : out->feedback_rx) {
    NSTREAM_RETURN_NOT_OK(r.ReadI64(&f.window));
    NSTREAM_RETURN_NOT_OK(r.ReadI64(&f.ns));
  }
  return Status::OK();
}

EncodedStream EncodeConnection(WorkloadKind w, const Sizes& s, uint64_t seed,
                               PhaseKind p, int conn, int64_t t0_ns) {
  EncodedStream out;
  std::unique_ptr<FrameSource> src = MakeFrameSource(w, s, seed, p, conn);
  WireFrame f;
  while (src->Next(t0_ns, &f)) {
    out.bytes += f.bytes;
    ++out.frames;
    if (f.send_at_progress.has_value()) {
      out.marks.push_back({out.bytes.size(), *f.send_at_progress});
    }
  }
  return out;
}

size_t SendableBytes(const EncodedStream& s, int64_t progress) {
  // Marks are in stream order, and their progress never decreases.
  const auto next = std::upper_bound(
      s.marks.begin(), s.marks.end(), progress,
      [](int64_t p, const EncodedStream::Mark& m) { return p < m.progress; });
  if (next == s.marks.end()) return s.bytes.size();
  return next == s.marks.begin() ? 0 : std::prev(next)->end;
}

Status Generator::Start(WorkloadKind w, const Sizes& s, uint64_t seed) {
  // Command and report pipes block; progress reports never block the
  // engine's sink.
  int fds[3][2];
  for (int i = 0; i < 3; ++i) {
    if (::pipe2(fds[i], O_CLOEXEC | (i == 2 ? O_NONBLOCK : 0)) != 0) {
      for (int j = 0; j < i; ++j) {
        ::close(fds[j][0]);
        ::close(fds[j][1]);
      }
      return Status::Internal("pipe failed");
    }
  }
  int* cmd = fds[0];
  int* rep = fds[1];
  int* prog = fds[2];
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int* p : {cmd, rep, prog}) {
      ::close(p[0]);
      ::close(p[1]);
    }
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::close(cmd[1]);
    ::close(rep[0]);
    ::close(prog[1]);
    ChildMain(w, s, seed, cmd[0], rep[1], prog[0]);
  }
  ::close(cmd[0]);
  ::close(rep[1]);
  ::close(prog[0]);
  pid_ = pid;
  cmd_fd_ = cmd[1];
  rep_fd_ = rep[0];
  prog_fd_ = prog[1];
  char ready = 0;
  if (!ReadFull(rep_fd_, &ready, 1, kReadyTimeoutMs) || ready != 'r') {
    Stop();
    return Status::Internal("generator did not start");
  }
  return Status::OK();
}

Status Generator::BeginPhase(const PhaseCmd& cmd) {
  if (!WriteFull(cmd_fd_, &cmd, sizeof(cmd))) {
    return Status::Internal("generator: command pipe closed");
  }
  return Status::OK();
}

Status Generator::EndPhase(GenReport* out) {
  uint32_t len = 0;
  if (!ReadFull(rep_fd_, &len, sizeof(len), kReportTimeoutMs)) {
    return Status::Internal("generator: no phase report");
  }
  std::string bytes(len, '\0');
  if (!ReadFull(rep_fd_, bytes.data(), len, kReportTimeoutMs)) {
    return Status::Internal("generator: truncated phase report");
  }
  *out = GenReport();
  return GenReport::Decode(bytes, out);
}

void Generator::Stop() {
  if (pid_ <= 0) return;
  PhaseCmd quit;
  quit.kind = kQuitCmd;
  (void)WriteFull(cmd_fd_, &quit, sizeof(quit));
  ::close(cmd_fd_);
  ::close(rep_fd_);
  ::close(prog_fd_);
  cmd_fd_ = rep_fd_ = prog_fd_ = -1;
  int status = 0;
  const int64_t deadline = MonoNs() + 5'000'000'000LL;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (MonoNs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(2000);
  }
  pid_ = -1;
}

}  // namespace nstream::e2e
