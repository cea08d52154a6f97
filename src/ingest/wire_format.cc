#include "ingest/wire_format.h"

#include <cstring>

#include "stream/columnar.h"

namespace nstream {

namespace {

inline void AppendHeader(std::string* out, FrameType type,
                         std::string_view payload) {
  const uint32_t magic = kFrameMagic;
  const uint32_t size = static_cast<uint32_t>(payload.size());
  out->append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out->append(reinterpret_cast<const char*>(&size), sizeof(size));
  out->push_back(static_cast<char>(type));
  out->append(payload.data(), payload.size());
}

inline bool KnownFrameType(uint8_t t) {
  return t <= static_cast<uint8_t>(FrameType::kShed);
}

// A serialized tuple is at least nvals(4) + id(8) + arrival(8) bytes
// plus a 1-byte type tag per value, so a batch of `count` tuples of
// arity n needs ≥ (20 + n)·count payload bytes. Checked before any
// Reserve, so a forged count reserves no more than a valid batch of
// all-NULL tuples in that payload would: a columnar block takes 16
// bytes per value and 16 per row, up to (16n + 16) / (20 + n) times the
// payload — about 12× at arity 64, under 16× at any arity.
constexpr size_t kMinTupleBytes = 20;

}  // namespace

Status ScanFrame(std::string_view buf, FrameView* out, size_t* consumed) {
  *consumed = 0;
  if (buf.size() < kFrameHeaderBytes) return Status::OK();  // need more
  uint32_t magic = 0;
  uint32_t size = 0;
  std::memcpy(&magic, buf.data(), sizeof(magic));
  std::memcpy(&size, buf.data() + 4, sizeof(size));
  const uint8_t type = static_cast<uint8_t>(buf[8]);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("ingest: bad frame magic");
  }
  if (size > kMaxFramePayload) {
    return Status::InvalidArgument("ingest: frame payload size " +
                                   std::to_string(size) +
                                   " exceeds limit");
  }
  if (!KnownFrameType(type)) {
    return Status::InvalidArgument("ingest: unknown frame type " +
                                   std::to_string(type));
  }
  if (buf.size() - kFrameHeaderBytes < size) return Status::OK();
  out->type = static_cast<FrameType>(type);
  out->payload = buf.substr(kFrameHeaderBytes, size);
  *consumed = kFrameHeaderBytes + size;
  return Status::OK();
}

// ---- Encoders ----

void AppendHelloFrame(std::string* out, uint32_t tuple_arity,
                      uint64_t producer_id, uint64_t resume_offset) {
  ByteWriter w;
  w.WriteU32(kWireVersion);
  w.WriteU32(tuple_arity);
  w.WriteU64(producer_id);
  w.WriteU64(resume_offset);
  AppendHeader(out, FrameType::kHello, w.buffer());
}

void AppendTupleBatchFrame(std::string* out, const Tuple* tuples,
                           size_t count) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    w.WriteTuple(tuples[i]);
  }
  AppendHeader(out, FrameType::kTupleBatch, w.buffer());
}

void AppendPunctuationFrame(std::string* out, const Punctuation& p) {
  ByteWriter w;
  w.WritePunctuation(p);
  AppendHeader(out, FrameType::kPunctuation, w.buffer());
}

void AppendEosFrame(std::string* out) {
  AppendHeader(out, FrameType::kEos, std::string_view());
}

void AppendFeedbackFrame(std::string* out, const FeedbackPunctuation& fb) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(fb.intent()));
  w.WritePattern(fb.pattern());
  w.WriteI64(fb.origin_op());
  w.WriteU32(static_cast<uint32_t>(fb.hop_count()));
  w.WriteI64(fb.issued_at_ms());
  w.WriteI64(fb.deadline_ms());
  AppendHeader(out, FrameType::kFeedback, w.buffer());
}

void AppendHelloAckFrame(std::string* out, uint64_t acknowledged_offset) {
  ByteWriter w;
  w.WriteU64(acknowledged_offset);
  AppendHeader(out, FrameType::kHelloAck, w.buffer());
}

void AppendErrorFrame(std::string* out, std::string_view message) {
  ByteWriter w;
  w.WriteString(message);
  AppendHeader(out, FrameType::kError, w.buffer());
}

void AppendHeartbeatFrame(std::string* out) {
  AppendHeader(out, FrameType::kHeartbeat, std::string_view());
}

void AppendShedFrame(std::string* out, ShedIntent intent, uint32_t level) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(intent));
  w.WriteU32(level);
  AppendHeader(out, FrameType::kShed, w.buffer());
}

// ---- Decoders ----

Status DecodeHello(std::string_view payload, uint32_t* version,
                   uint32_t* arity, uint64_t* producer_id,
                   uint64_t* resume_offset) {
  ByteReader r(payload);
  NSTREAM_RETURN_NOT_OK(r.ReadU32(version));
  NSTREAM_RETURN_NOT_OK(r.ReadU32(arity));
  NSTREAM_RETURN_NOT_OK(r.ReadU64(producer_id));
  NSTREAM_RETURN_NOT_OK(r.ReadU64(resume_offset));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("ingest: trailing bytes in hello");
  }
  return Status::OK();
}

Status DecodeHelloAck(std::string_view payload,
                      uint64_t* acknowledged_offset) {
  ByteReader r(payload);
  NSTREAM_RETURN_NOT_OK(r.ReadU64(acknowledged_offset));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("ingest: trailing bytes in hello-ack");
  }
  return Status::OK();
}

Status DecodeError(std::string_view payload, std::string* message) {
  ByteReader r(payload);
  NSTREAM_RETURN_NOT_OK(r.ReadString(message));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "ingest: trailing bytes in error frame");
  }
  return Status::OK();
}

Status DecodeShed(std::string_view payload, ShedIntent* intent,
                  uint32_t* level) {
  ByteReader r(payload);
  uint8_t raw = 0;
  NSTREAM_RETURN_NOT_OK(r.ReadU8(&raw));
  if (raw > static_cast<uint8_t>(ShedIntent::kDropSubset)) {
    return Status::InvalidArgument("ingest: unknown shed intent " +
                                   std::to_string(raw));
  }
  NSTREAM_RETURN_NOT_OK(r.ReadU32(level));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("ingest: trailing bytes in shed frame");
  }
  *intent = static_cast<ShedIntent>(raw);
  return Status::OK();
}

Status DecodePunctuation(std::string_view payload, Punctuation* out) {
  ByteReader r(payload);
  NSTREAM_RETURN_NOT_OK(r.ReadPunctuation(out));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "ingest: trailing bytes in punctuation frame");
  }
  return Status::OK();
}

Status DecodeFeedback(std::string_view payload, FeedbackPunctuation* out) {
  ByteReader r(payload);
  uint8_t intent = 0;
  PunctPattern pattern;
  int64_t origin = 0, issued = -1, deadline = -1;
  uint32_t hops = 0;
  NSTREAM_RETURN_NOT_OK(r.ReadU8(&intent));
  if (intent > static_cast<uint8_t>(FeedbackIntent::kDemanded)) {
    return Status::InvalidArgument("ingest: unknown feedback intent " +
                                   std::to_string(intent));
  }
  NSTREAM_RETURN_NOT_OK(r.ReadPattern(&pattern));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&origin));
  NSTREAM_RETURN_NOT_OK(r.ReadU32(&hops));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&issued));
  NSTREAM_RETURN_NOT_OK(r.ReadI64(&deadline));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "ingest: trailing bytes in feedback frame");
  }
  *out = FeedbackPunctuation(static_cast<FeedbackIntent>(intent),
                             std::move(pattern));
  out->set_origin_op(origin);
  out->set_hop_count(static_cast<int>(hops));
  out->set_issued_at_ms(issued);
  out->set_deadline_ms(deadline);
  return Status::OK();
}

namespace {

/// Shared batch-prefix validation: read + sanity-check the count
/// against the smallest tuple of `arity` values.
Status ReadBatchCount(ByteReader* r, size_t payload_size, uint32_t arity,
                      uint32_t* count) {
  NSTREAM_RETURN_NOT_OK(r->ReadU32(count));
  if (*count > payload_size / (kMinTupleBytes + arity)) {
    return Status::InvalidArgument(
        "ingest: batch count " + std::to_string(*count) +
        " impossible for payload of " + std::to_string(payload_size) +
        " bytes");
  }
  return Status::OK();
}

}  // namespace

Status DecodeTupleBatchInto(std::string_view payload,
                            uint32_t expected_arity, Page* page,
                            bool /*allow_columnar*/, int64_t* next_id) {
  ByteReader r(payload);
  uint32_t count = 0;
  NSTREAM_RETURN_NOT_OK(
      ReadBatchCount(&r, payload.size(), expected_arity, &count));
  if (count == 0) {
    if (!r.AtEnd()) {
      return Status::InvalidArgument(
          "ingest: trailing bytes in empty batch");
    }
    return Status::OK();
  }

  // Straight into per-attribute arrays in the page arena.
  ColumnarBlock* block = page->BeginColumnar(expected_arity, count);
  int64_t* ids = block->mutable_ids();
  TimeMs* arrivals = block->mutable_arrivals();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t nvals = 0;
    NSTREAM_RETURN_NOT_OK(r.ReadU32(&nvals));
    if (nvals != expected_arity) {
      return Status::InvalidArgument(
          "ingest: tuple arity " + std::to_string(nvals) +
          " does not match schema arity " +
          std::to_string(expected_arity));
    }
    const uint32_t row = block->AddRow(0, -1);
    for (uint32_t c = 0; c < nvals; ++c) {
      Value v;
      NSTREAM_RETURN_NOT_OK(r.ReadValueIn(block->arena(), &v));
      block->Set(c, row, v);
    }
    int64_t id = 0;
    int64_t arrival = 0;
    NSTREAM_RETURN_NOT_OK(r.ReadI64(&id));
    NSTREAM_RETURN_NOT_OK(r.ReadI64(&arrival));
    ids[row] = id != 0 ? id : (*next_id)++;
    arrivals[row] = arrival;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "ingest: trailing bytes in tuple batch");
  }
  return Status::OK();
}

Status DecodeTupleBatchOwned(std::string_view payload,
                             uint32_t expected_arity,
                             std::vector<Tuple>* out) {
  ByteReader r(payload);
  uint32_t count = 0;
  NSTREAM_RETURN_NOT_OK(
      ReadBatchCount(&r, payload.size(), expected_arity, &count));
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    Tuple t;
    NSTREAM_RETURN_NOT_OK(r.ReadTuple(&t));
    if (static_cast<uint32_t>(t.size()) != expected_arity) {
      return Status::InvalidArgument(
          "ingest: tuple arity " + std::to_string(t.size()) +
          " does not match schema arity " +
          std::to_string(expected_arity));
    }
    out->push_back(std::move(t));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "ingest: trailing bytes in tuple batch");
  }
  return Status::OK();
}

}  // namespace nstream
