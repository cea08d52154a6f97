// IngestSource: the engine's front door. A SourceOperator that runs as
// a normal scheduler task, pops whole tagged wire frames (MuxFrame)
// from a FrameConduit, and zero-copy-parses tuple batches straight
// into arena-backed pages (columnar when the global toggle is on) —
// one page per batch frame, emitted through the regular page path.
// The frames come from N producers (the TcpAcceptor fan-in) or from
// one in-memory producer (ConduitClient, a trace replay); one producer
// is simply the N = 1 case of the same per-producer protocol.
//
// Four things make it more than a deserializer:
//
//   Readiness — Poll() reports kIdle while the conduit is open but
//   drained, so the pooled scheduler parks the task instead of
//   spinning or (worse) declaring EOS; the conduit's data notifier
//   re-enqueues it when frames arrive.
//
//   Sessions — every producer opens with a hello carrying its id
//   (>= 1) and a resume offset; the source keeps per-producer admitted
//   counts, answers each hello with a kHelloAck carrying the
//   acknowledged offset, and skips duplicates a reconnecting producer
//   re-sends. A framing, payload or protocol error from one producer
//   QUARANTINES that producer (a kError goes back to it, it counts as
//   done, quarantined_producers() counts it); the query keeps running.
//
//   Feedback to the producer (§3.2's twist at the edge) — feedback
//   punctuation arriving on the output's control channel is (a)
//   EXPLOITED locally: assumed patterns become admission guards that
//   drop matching tuples at parse time, before they cost the plan
//   anything; and (b) RELAYED to the producers as a feedback frame on
//   the conduit's return channel, so an overloaded plan throttles or
//   prunes the clients themselves.
//
//   Durability — SnapshotState records each producer's acknowledged
//   offset (frames fully parsed AND emitted; a checkpoint barrier is
//   injected between slices, so there is never a half-emitted frame).
//   Recovery replays a recorded tagged trace, or producers reconnect;
//   each producer's replayed hello re-opens its skip window, and the
//   source skips exactly the frames the checkpoint acknowledged: the
//   recovery layer's at-least-once contract at the ingest edge. Skipped
//   frames are re-appended to the trace (recovery may record to the
//   SAME path the replay was read from — the file is truncated on
//   Open, so the prefix must be regained), and a replay that ends
//   before covering a checkpointed offset is a hard error, never a
//   silent clean close.

#ifndef NSTREAM_INGEST_INGEST_SOURCE_H_
#define NSTREAM_INGEST_INGEST_SOURCE_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/guards.h"
#include "exec/operator.h"
#include "ingest/frame_conduit.h"
#include "ingest/trace.h"
#include "ingest/wire_format.h"

namespace nstream {

struct IngestSourceOptions {
  /// Frames fully processed per ProduceNext call (the scheduler's
  /// source_batch_per_slice multiplies on top).
  int max_frames_per_produce = 8;
  /// When non-empty, append every admitted frame to this trace file as
  /// a tagged record (truncated on Open; during recovery replay,
  /// skipped frames are re-appended so the file regains the
  /// checkpointed prefix — safe to reuse the path the replay was read
  /// from, since ReplayMuxTraceIntoConduit reads the whole file before
  /// the plan opens).
  std::string trace_path;
  /// The stream ends once this many distinct producers have completed
  /// (clean EOS or quarantine). 0 = end only when the conduit's write
  /// side closes and drains (acceptor Stop, client CloseWrite).
  int expected_eos_producers = 0;
  /// Ignored: every IngestSource reads tagged frames. Kept so callers
  /// written for the former single-stream mode still compile.
  bool multi_producer = true;
};

class IngestSource final : public SourceOperator {
 public:
  /// `conduit` must outlive the plan (it is the transport, owned by
  /// the acceptor/test/bench harness).
  IngestSource(std::string name, SchemaPtr schema, FrameConduit* conduit,
               IngestSourceOptions opts = {});

  Status InferSchemas() override { return Status::OK(); }
  Status Open(ExecContext* ctx) override;
  Status Close() override;

  SourcePoll Poll() override;
  std::optional<TimeMs> NextArrivalMs() override;
  Status ProduceNext() override;
  void SetWakeNotifier(std::function<void()> fn) override {
    conduit_->SetDataNotifier(std::move(fn));
  }

  Status ProcessFeedback(int out_port,
                         const FeedbackPunctuation& feedback) override;

  Status SnapshotState(SnapshotWriter* w) override;
  Status RestoreState(SnapshotReader* r) override;

  /// Frames fully parsed and emitted, across producers (including
  /// hello/punct/EOS frames).
  uint64_t admitted_frames() const { return admitted_frames_; }
  /// Frames this incarnation skipped during replay (recovery).
  uint64_t replayed_skips() const { return replayed_skips_; }
  /// Duplicate frames skipped on live reconnect resume (the
  /// at-least-once dedup at the engine side).
  uint64_t resume_skips() const { return resume_skips_; }
  /// Frames dropped because their producer is quarantined, plus
  /// producers quarantined so far.
  uint64_t quarantined_frames() const { return quarantined_frames_; }
  uint64_t quarantined_producers() const { return quarantined_producers_; }
  /// The engine's acknowledged per-producer offset (frames after the
  /// hello admitted from `producer`) — what a checkpoint captures and
  /// a hello-ack reports; 0 if unknown.
  uint64_t acknowledged_offset(uint64_t producer) const;
  const GuardSet& admission_guards() const { return admission_guards_; }

 private:
  // Per-producer session state. `admitted` counts frames AFTER the
  // hello (data/punct/EOS) — the acknowledged offset the resume
  // handshake speaks in.
  struct ProducerState {
    uint64_t admitted = 0;
    uint64_t skip_remaining = 0;  // resume duplicates still to drop
    // Admitted count restored from a checkpoint: frames below this
    // index were admitted by a PREVIOUS incarnation, so when a replay
    // skips them they must be re-appended to this incarnation's
    // (truncated-on-open) trace. reappended_high tracks how far that
    // re-append has progressed so a later live reconnect covering the
    // same range cannot duplicate trace records.
    uint64_t restored_admitted = 0;
    uint64_t reappended_high = 0;
    bool hello_seen = false;
    bool eos_seen = false;
    bool quarantined = false;
  };

  Status EmitBatch(std::string_view payload);
  void ApplyAdmissionGuards(Page* page);

  SourcePoll CheckMuxExhausted();
  Status ProcessMuxFrame(const MuxFrame& mux);
  Status ProcessMuxHello(uint64_t producer, const FrameView& f);
  // Cut one producer off: mark it quarantined (it counts as done so
  // the query cannot hang on its EOS), send a kError feedback frame
  // so the acceptor closes the connection, and count it. The query
  // itself keeps running — this is the error-isolation point.
  void QuarantineProducer(uint64_t producer, const std::string& reason);
  bool AllProducersDone() const;

  FrameConduit* conduit_;
  IngestSourceOptions opts_;

  // A query-fatal error (reserved producer id, short replay), sticky
  // so Poll keeps reporting kReady until ProduceNext surfaces it.
  Status pending_error_ = Status::OK();

  // Durability / identity.
  uint64_t admitted_frames_ = 0;
  uint64_t replayed_skips_ = 0;
  int64_t next_id_ = 1;

  // Session state, keyed by producer id (ordered so snapshots are
  // deterministic).
  std::map<uint64_t, ProducerState> producers_;
  int done_producers_ = 0;  // EOS'd or quarantined
  uint64_t resume_skips_ = 0;
  uint64_t quarantined_frames_ = 0;
  uint64_t quarantined_producers_ = 0;

  // Feedback exploitation at the edge.
  GuardSet admission_guards_;

  FrameTraceWriter trace_;
};

}  // namespace nstream

#endif  // NSTREAM_INGEST_INGEST_SOURCE_H_
