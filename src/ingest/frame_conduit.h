// FrameConduit: the channel between the transport edge and one
// IngestSource. Producer → engine traffic is whole tagged wire frames
// (MuxFrame): the TcpAcceptor assembles frames per connection and
// enqueues them tagged with the connection's producer id, so N
// producers interleave at frame granularity, never mid-frame. One
// in-memory producer (ConduitClient, a trace replay) is the N = 1
// case of the same queue.
//
// Engine → producer traffic (feedback, hello-acks, quarantine
// notices) flows as encoded frames with a routing target: one
// producer, or broadcast. Thread-safe on both sides: the producer may
// be a client thread or the acceptor thread, the consumer is whichever
// worker runs the IngestSource task.
//
// The frame queue is held to a byte budget (mux_budget_bytes): a
// frame past it is refused and the acceptor parks it on its
// connection, pausing reads there — kernel backpressure on that
// producer alone. The data notifier makes an idle IngestSource
// schedulable again: the pooled scheduler wires it to Wake(task) (via
// SetWakeNotifier), so a frame arriving on a drained conduit
// re-enqueues the parked source. The producer wake fd is the same
// hook in the other direction: the acceptor polls it, and the conduit
// writes it when the source has drained room for a refused frame and
// when a feedback frame is queued, so the acceptor refills and relays
// on the event instead of on its poll timer.

#ifndef NSTREAM_INGEST_FRAME_CONDUIT_H_
#define NSTREAM_INGEST_FRAME_CONDUIT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace nstream {

/// One whole wire frame from one producer — the fan-in unit. The
/// acceptor assembles frames per connection (so producers' bytes
/// never interleave mid-frame) and tags each with the connection's
/// producer id.
struct MuxFrame {
  uint64_t producer = 0;
  std::string bytes;
};

/// An engine → producer frame with routing: target 0 means broadcast
/// to every producer, otherwise exactly one.
struct RoutedFeedback {
  uint64_t target = 0;
  std::string bytes;
};

struct FrameConduitOptions {
  /// Bound on queued producer → engine frame bytes. OfferMuxFrame
  /// refuses a frame that would cross it (unless the queue is empty,
  /// so one oversized frame still makes progress). The acceptor is
  /// woken as soon as the source drains room for a refused frame (see
  /// SetProducerWakeFd), so the budget only has to cover the frames
  /// that land while it wakes and reads: past that, backlog waits as
  /// wire bytes in the producers' sockets, which costs the engine no
  /// memory.
  size_t mux_budget_bytes = size_t{128} * 1024;
  /// Bound on queued engine → producer frames. With no drainer (no
  /// transport attached, or the peer died) the queue must not grow
  /// for the life of the query; past the cap the OLDEST frame is
  /// dropped — feedback is advisory and newer intent supersedes older.
  size_t max_feedback_frames = 256;
};

class FrameConduit {
 public:
  using Options = FrameConduitOptions;

  explicit FrameConduit(Options opts = {})
      : mux_budget_(opts.mux_budget_bytes > 0 ? opts.mux_budget_bytes : 1),
        max_feedback_(opts.max_feedback_frames > 0
                          ? opts.max_feedback_frames
                          : 1) {}

  FrameConduit(const FrameConduit&) = delete;
  FrameConduit& operator=(const FrameConduit&) = delete;

  // ---- Producer side (acceptor thread / in-memory client) ----

  /// Enqueue one whole wire frame from `producer`. False when the
  /// queue is at its byte budget: the acceptor keeps the frame
  /// pending and pauses reads on that connection.
  bool OfferMuxFrame(uint64_t producer, std::string_view frame_bytes);

  /// Budget-exempt enqueue for small control frames the source MUST
  /// see (e.g. the acceptor's quarantine notice) and for trusted local
  /// trace replay. Never fails.
  void ForceMuxFrame(uint64_t producer, std::string frame_bytes);

  /// Producers are done; once the queued frames drain the stream ends.
  void CloseWrite();

  /// Next engine → producer frame with its routing target, if any.
  std::optional<RoutedFeedback> TryPopRoutedFeedback();

  /// An eventfd the producer side polls (-1 detaches). Written, under
  /// the conduit's lock, when a frame OfferMuxFrame refused would now
  /// fit and the queue has drained to half its budget (or emptied),
  /// and when PushFeedbackFrameTo queues onto an empty feedback queue.
  /// The owner detaches it before closing the descriptor; the lock
  /// makes sure no write is still in flight.
  void SetProducerWakeFd(int fd);

  // ---- Consumer side (IngestSource) ----

  std::optional<MuxFrame> TryPopMuxFrame();
  bool HasMuxFrames() const;
  size_t mux_queued_bytes() const;
  size_t mux_budget_bytes() const { return mux_budget_; }
  bool write_closed() const;

  /// Fired (outside the lock) when a frame is queued or the write
  /// side closes — the IngestSource wake hook.
  void SetDataNotifier(std::function<void()> fn);

  /// Engine side: route an encoded frame back to one producer
  /// (`producer` != 0) or to all (0). Bounded (max_feedback_frames):
  /// when full, drops the oldest.
  void PushFeedbackFrameTo(uint64_t producer, std::string frame_bytes);
  /// Frames dropped to honor max_feedback_frames.
  uint64_t feedback_dropped() const;

 private:
  /// Writes the producer wake fd, if one is attached. Caller holds mu_.
  void SignalProducerLocked();

  const size_t mux_budget_;
  const size_t max_feedback_;
  mutable std::mutex mu_;
  std::deque<MuxFrame> mux_;
  size_t mux_bytes_ = 0;
  // Smallest frame refused since the last producer wake (0 = none): a
  // pop that makes room for it, at half the budget, writes the wake fd.
  size_t refused_bytes_ = 0;
  int producer_wake_fd_ = -1;
  std::deque<RoutedFeedback> feedback_;
  uint64_t feedback_dropped_ = 0;
  bool write_closed_ = false;
  std::function<void()> data_notifier_;
};

}  // namespace nstream

#endif  // NSTREAM_INGEST_FRAME_CONDUIT_H_
