// The load generator: a separately forked, single-threaded process that
// drives at most 4 loopback TCP connections into the engine with one
// poll(2) loop. The latency phase is open-loop: frames are due on a
// schedule fixed before the phase starts, frames that the sockets do
// not take yet queue in user space, and due times stay in the tuples,
// so an engine stall shows up as latency instead of as a lighter load.
// Saturation phases are a closed loop (see kSatWindowsInFlight): the
// engine's sink reports its progress on a pipe. The generator also
// reads what the engine sends back (hello-acks, feedback, shed advice)
// and logs when feedback punctuation arrives.

#ifndef NSTREAM_BENCH_E2E_GENERATOR_H_
#define NSTREAM_BENCH_E2E_GENERATOR_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace nstream::e2e {

inline constexpr int kMaxConnections = 4;

struct PhaseCmd {
  int32_t kind = 0;  // a PhaseKind, or kQuitCmd
  int32_t nconn = 0;
  int32_t ports[kMaxConnections] = {};
  int64_t t0_ns = 0;  // latency phase: time zero of the send schedule
};
inline constexpr int32_t kQuitCmd = -1;

/// A frame is late when the generator takes it up (queues it for its
/// connection and tries to send it) more than this long after its due
/// time. Frames the engine is slow to read wait in the user-space
/// backlog instead; that delay is the engine's and shows as latency.
inline constexpr double kLateMs = 5.0;

struct GenReport {
  std::string error;  // non-empty: the phase did not run to completion
  int64_t first_send_ns = 0;
  int64_t frames_attempted = 0;
  int64_t frames_sent = 0;
  int64_t errors_rx = 0;  // kError (quarantine) frames from the engine
  // Latency phase only: take-up time minus due time per frame, and the
  // largest user-space backlog over all connections.
  int64_t lag_count = 0;
  double lag_p99_ms = 0;
  double late_frac = 0;
  int64_t backlog_max_bytes = 0;
  struct PunctDue {
    int32_t conn = 0;
    int64_t window = 0;
    int64_t due_ns = 0;
  };
  std::vector<PunctDue> punct_due;
  struct FeedbackRx {
    int64_t window = 0;  // -1 when the pattern names no single window
    int64_t ns = 0;      // when the producer decoded the frame
  };
  std::vector<FeedbackRx> feedback_rx;

  std::string Encode() const;
  static Status Decode(std::string_view bytes, GenReport* out);
};

/// One connection's frames for a phase, encoded as the generator sends
/// them.
struct EncodedStream {
  std::string bytes;
  int64_t frames = 0;
  /// The bytes up to `end` may go out once the sink's progress report
  /// reaches `progress` (WireFrame::send_at_progress), in stream order.
  struct Mark {
    size_t end = 0;
    int64_t progress = 0;
  };
  std::vector<Mark> marks;
};
/// Bytes of `s` the generator may have sent once the sink has reported
/// `progress`: through the last mark reached, or all of them once every
/// mark is.
size_t SendableBytes(const EncodedStream& s, int64_t progress);

EncodedStream EncodeConnection(WorkloadKind w, const Sizes& s, uint64_t seed,
                               PhaseKind p, int conn, int64_t t0_ns);

/// Parent-side handle on the generator process.
class Generator {
 public:
  Generator() = default;
  ~Generator() { Stop(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Fork the generator. Returns once it has encoded its saturation
  /// input. Call before the engine starts any thread.
  Status Start(WorkloadKind w, const Sizes& s, uint64_t seed);
  Status BeginPhase(const PhaseCmd& cmd);
  /// The phase report; arrives once every connection has been closed
  /// by the engine.
  Status EndPhase(GenReport* out);
  /// Tell the process to exit and reap it (killing it if it hangs).
  void Stop();

  /// Non-blocking write end of the progress pipe: the engine's sink
  /// writes its progress there, as an int64 that only grows in a phase.
  int progress_fd() const { return prog_fd_; }

 private:
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int rep_fd_ = -1;
  int prog_fd_ = -1;
};

}  // namespace nstream::e2e

#endif  // NSTREAM_BENCH_E2E_GENERATOR_H_
