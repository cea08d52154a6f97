// The ingest wire format: how external producers speak to the engine
// (and how the engine speaks BACK — the paper's feedback punctuations
// travel the same byte stream in the opposite direction, so an
// overloaded plan can throttle or prune its producer).
//
// Every frame is:
//
//   [ magic u32 | size u32 | type u8 | payload (size bytes) ]
//
// little-endian, magic 0xDEADBEEF. The header is validated before a
// single payload byte is touched: wrong magic, an unknown type, or a
// size above kMaxFramePayload reject the stream immediately — a
// desynchronized or hostile peer cannot make the parser allocate or
// wander. A stream opens with a Hello frame carrying the format
// version and the tuple arity, so version skew is an explicit error
// instead of garbage decode.
//
// Payloads reuse the engine's ONE binary encoding (serde/serde.h):
// a tuple on the wire is byte-for-byte a tuple in a checkpoint.
//
//   kHello       u32 version, u32 tuple arity, u64 producer id,
//                u64 resume offset (the per-producer frame index the
//                producer will resume sending from — 0 on a fresh
//                stream; on reconnect the engine skips duplicates up
//                to its acknowledged offset)
//   kTupleBatch  u32 count, count × Tuple
//   kPunctuation Punctuation
//   kEos         (empty)
//   kFeedback    u8 intent, PunctPattern, i64 origin_op, u32 hops,
//                i64 issued_at_ms, i64 deadline_ms   [engine → producer]
//   kHelloAck    u64 acknowledged offset              [engine → producer]
//   kError       string message — the connection is being quarantined
//                and will be closed                   [engine → producer]
//   kHeartbeat   (empty) — liveness, either direction; consumed by the
//                transport, never forwarded into the plan
//   kShed        u8 intent (slow-down / drop-subset), u32 level —
//                overload shedding advice             [engine → producer]
//
// Decode is zero-copy where it matters: DecodeTupleBatchInto parses
// tuple batches STRAIGHT into an arena-backed Page — string bytes go
// frame-buffer → page arena (inline when ≤15 B), rows stage into a
// ColumnarBlock when the columnar layout is on, and no intermediate
// Tuple/std::string is ever materialized. DecodeTupleBatchOwned is
// the materialize-then-copy reference path bench_ingest races it
// against.

#ifndef NSTREAM_INGEST_WIRE_FORMAT_H_
#define NSTREAM_INGEST_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "punct/feedback.h"
#include "punct/punct_pattern.h"
#include "serde/serde.h"
#include "stream/page.h"
#include "types/tuple.h"

namespace nstream {

inline constexpr uint32_t kFrameMagic = 0xDEADBEEFu;
/// v2 grew the hello handshake (producer id + resume offset) and the
/// connection-lifecycle frames (hello-ack, error, heartbeat, shed).
inline constexpr uint32_t kWireVersion = 2;
/// magic(4) + size(4) + type(1).
inline constexpr size_t kFrameHeaderBytes = 9;
/// Upper bound on a frame payload; a size field above this is treated
/// as corruption (or hostility), not as an allocation request.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

enum class FrameType : uint8_t {
  kHello = 0,        // stream opener: version + arity + session
  kTupleBatch = 1,   // producer → engine data
  kPunctuation = 2,  // producer → engine embedded punctuation
  kEos = 3,          // producer → engine end of stream
  kFeedback = 4,     // engine → producer feedback punctuation
  kHelloAck = 5,     // engine → producer acknowledged resume offset
  kError = 6,        // engine → producer quarantine notice (then close)
  kHeartbeat = 7,    // either direction liveness; transport-consumed
  kShed = 8,         // engine → producer overload shedding advice
};

/// What an overloaded serving edge asks of its producers, in
/// escalation order: first pace yourself, then thin the stream.
enum class ShedIntent : uint8_t {
  kSlowDown = 0,    // level = suggested pause between sends, ms
  kDropSubset = 1,  // level = suggested drop rate, permille
};

/// A decoded frame header + a view of its payload bytes (borrowed
/// from the scan buffer — valid only while that buffer is).
struct FrameView {
  FrameType type = FrameType::kEos;
  std::string_view payload;
};

/// Scan one frame off the front of `buf`. Three outcomes:
///   OK, *consumed > 0   — `*out` holds the frame; consume the bytes.
///   OK, *consumed == 0  — incomplete: need more bytes.
///   !OK                 — corrupt (bad magic / unknown type /
///                         oversized size field); the stream is dead.
Status ScanFrame(std::string_view buf, FrameView* out, size_t* consumed);

// ---- Frame encoders (producer side + engine feedback) ----

/// `producer_id` names the session for fan-in routing and reconnect
/// resume; it must be >= 1 (0 is the broadcast routing target, and
/// the engine rejects it). `resume_offset` is the per-producer frame
/// index (frames after the hello) the producer will resume sending
/// from — 0 on a fresh stream.
void AppendHelloFrame(std::string* out, uint32_t tuple_arity,
                      uint64_t producer_id, uint64_t resume_offset);
void AppendTupleBatchFrame(std::string* out, const Tuple* tuples,
                           size_t count);
inline void AppendTupleBatchFrame(std::string* out,
                                  const std::vector<Tuple>& tuples) {
  AppendTupleBatchFrame(out, tuples.data(), tuples.size());
}
void AppendPunctuationFrame(std::string* out, const Punctuation& p);
void AppendEosFrame(std::string* out);
void AppendFeedbackFrame(std::string* out, const FeedbackPunctuation& fb);
void AppendHelloAckFrame(std::string* out, uint64_t acknowledged_offset);
void AppendErrorFrame(std::string* out, std::string_view message);
void AppendHeartbeatFrame(std::string* out);
void AppendShedFrame(std::string* out, ShedIntent intent, uint32_t level);

// ---- Payload decoders ----

Status DecodeHello(std::string_view payload, uint32_t* version,
                   uint32_t* arity, uint64_t* producer_id,
                   uint64_t* resume_offset);
Status DecodeHelloAck(std::string_view payload,
                      uint64_t* acknowledged_offset);
Status DecodeError(std::string_view payload, std::string* message);
Status DecodeShed(std::string_view payload, ShedIntent* intent,
                  uint32_t* level);
Status DecodePunctuation(std::string_view payload, Punctuation* out);
Status DecodeFeedback(std::string_view payload, FeedbackPunctuation* out);

/// Zero-copy batch decode: parse `payload` straight into `page`.
/// String bytes land in the page's arena (or inline); when
/// `allow_columnar` and the global PageColumnar toggle is on (and the
/// page can open an arena), rows stage into a ColumnarBlock. Tuples
/// whose wire id is 0 are assigned from `*next_id` (advanced), the
/// same stable-identity rule VectorSource applies. Every tuple must
/// have exactly `expected_arity` values — a mismatch is corruption.
Status DecodeTupleBatchInto(std::string_view payload,
                            uint32_t expected_arity, Page* page,
                            bool allow_columnar, int64_t* next_id);

/// Reference decode path: materialize owned tuples (heap strings, no
/// arena) into `out` — what ingest would cost WITHOUT the arena
/// handoff. Kept for the bench A/B and as a debugging oracle.
Status DecodeTupleBatchOwned(std::string_view payload,
                             uint32_t expected_arity,
                             std::vector<Tuple>* out);

}  // namespace nstream

#endif  // NSTREAM_INGEST_WIRE_FORMAT_H_
