// Producer-side helpers. ConduitClient is the in-memory producer tests
// and benches speak the wire protocol through: it queues whole tagged
// frames onto a FrameConduit under its producer id and decodes the
// frames routed back to it. NOT the engine's API surface — a real
// producer owns a socket and writes the same frames (see
// tcp_acceptor.h for the engine's end of that). ReconnectBackoff is
// the retry policy such a producer paces its reconnect attempts with.

#ifndef NSTREAM_INGEST_INGEST_CLIENT_H_
#define NSTREAM_INGEST_INGEST_CLIENT_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ingest/frame_conduit.h"
#include "ingest/wire_format.h"

namespace nstream {

struct ReconnectBackoffOptions {
  int64_t base_delay_ms = 10;
  int64_t max_delay_ms = 1000;
  double multiplier = 2.0;
  /// Each delay is perturbed by ±jitter (fraction), so a herd of
  /// producers kicked off the same dead server does not retry in
  /// lockstep. Seeded: the schedule is reproducible per producer.
  double jitter = 0.2;
  uint64_t seed = 1;
};

/// Bounded exponential backoff with deterministic jitter. Pure policy
/// — no sleeping, no clock: the caller asks NextDelayMs() and decides
/// how to wait, which keeps tests instant and schedules replayable.
class ReconnectBackoff {
 public:
  using Options = ReconnectBackoffOptions;

  explicit ReconnectBackoff(Options opts = {})
      : opts_(opts), rng_(opts.seed) {}

  /// Delay to wait before the next attempt, advancing the schedule:
  /// base · multiplier^attempt, capped at max, then jittered.
  int64_t NextDelayMs() {
    double d = static_cast<double>(opts_.base_delay_ms);
    for (int i = 0; i < attempts_ && d < static_cast<double>(opts_.max_delay_ms);
         ++i) {
      d *= opts_.multiplier;
    }
    d = std::min(d, static_cast<double>(opts_.max_delay_ms));
    if (opts_.jitter > 0.0) {
      d *= rng_.NextDouble(1.0 - opts_.jitter, 1.0 + opts_.jitter);
    }
    ++attempts_;
    return std::max<int64_t>(0, static_cast<int64_t>(d));
  }

  /// Call on a successful (re)connect: the next failure starts the
  /// schedule over from the base delay.
  void Reset() { attempts_ = 0; }

  int attempts() const { return attempts_; }

 private:
  Options opts_;
  Rng rng_;
  int attempts_ = 0;
};

/// One in-memory producer: the N = 1 case of the acceptor fan-in. One
/// client per conduit — it consumes every routed frame it pops.
class ConduitClient {
 public:
  /// `producer_id` must be >= 1; the engine rejects 0.
  ConduitClient(FrameConduit* conduit, uint64_t producer_id)
      : conduit_(conduit), producer_(producer_id) {}

  /// Open a fresh session (resume offset 0).
  Status Hello(uint32_t tuple_arity) {
    std::string f;
    AppendHelloFrame(&f, tuple_arity, producer_, /*resume_offset=*/0);
    return Send(f);
  }
  Status SendBatch(const std::vector<Tuple>& tuples) {
    std::string f;
    AppendTupleBatchFrame(&f, tuples);
    return Send(f);
  }
  Status SendPunctuation(const Punctuation& p) {
    std::string f;
    AppendPunctuationFrame(&f, p);
    return Send(f);
  }
  Status SendEos() {
    std::string f;
    AppendEosFrame(&f);
    return Send(f);
  }
  /// Raw escape hatch: one whole frame, possibly damaged (corruption
  /// tests inject forged payloads here).
  Status SendRaw(std::string_view frame) { return Send(frame); }

  void CloseWrite() { conduit_->CloseWrite(); }

  /// Decode the next feedback punctuation routed to this producer, if
  /// any. Hello-acks, heartbeats and shed advice are transport
  /// traffic and are skipped; a kError (this producer was
  /// quarantined) comes back as an InvalidArgument carrying the
  /// engine's reason. A malformed frame is an engine bug, surfaced as
  /// Internal.
  Result<std::optional<FeedbackPunctuation>> PollFeedback() {
    while (std::optional<RoutedFeedback> r =
               conduit_->TryPopRoutedFeedback()) {
      if (r->target != 0 && r->target != producer_) continue;
      FrameView f;
      size_t consumed = 0;
      NSTREAM_RETURN_NOT_OK(ScanFrame(r->bytes, &f, &consumed));
      if (consumed != r->bytes.size()) {
        return Status::Internal("client: malformed engine frame");
      }
      switch (f.type) {
        case FrameType::kFeedback: {
          FeedbackPunctuation fb;
          NSTREAM_RETURN_NOT_OK(DecodeFeedback(f.payload, &fb));
          return std::optional<FeedbackPunctuation>(std::move(fb));
        }
        case FrameType::kError: {
          std::string msg;
          NSTREAM_RETURN_NOT_OK(DecodeError(f.payload, &msg));
          return Status::InvalidArgument(std::move(msg));
        }
        case FrameType::kHelloAck:
        case FrameType::kHeartbeat:
        case FrameType::kShed:
          continue;
        default:
          return Status::Internal("client: producer-direction frame routed "
                                  "back to the producer");
      }
    }
    return std::optional<FeedbackPunctuation>();
  }

 private:
  Status Send(std::string_view frame) {
    if (!conduit_->OfferMuxFrame(producer_, frame)) {
      return Status::ResourceExhausted(
          "client: conduit mux budget full (backpressure)");
    }
    return Status::OK();
  }

  FrameConduit* conduit_;
  uint64_t producer_;
};

}  // namespace nstream

#endif  // NSTREAM_INGEST_INGEST_CLIENT_H_
