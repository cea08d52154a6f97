#include "serde/serde.h"

#include <cstring>
#include <vector>

namespace nstream {

uint32_t SerdeCrc32(std::string_view data, uint32_t crc) {
  // Table-driven CRC32 (IEEE 802.3, reflected 0xEDB88320). Built once;
  // both users (snapshot envelope, corrupted-trace detection) are
  // cold-path I/O, so a 1 KiB table beats hand-tuning.
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  crc ^= 0xFFFFFFFFu;
  for (unsigned char b : data) {
    crc = kTable[(crc ^ b) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---- ByteWriter: spilling ----

void ByteWriter::SpillAppend(const void* p, size_t n) {
  Flush();
  if (n >= kSpillBytes) {  // too big for the buffer: straight through
    sink_->Append(std::string_view(static_cast<const char*>(p), n));
    spilled_ += n;
    return;
  }
  buf_.append(static_cast<const char*>(p), n);
}

void ByteWriter::Flush() {
  if (sink_ == nullptr || buf_.empty()) return;
  sink_->Append(buf_);
  spilled_ += buf_.size();
  buf_.clear();  // keeps its capacity
}

void ByteWriter::EndSection(uint64_t mark) {
  const auto len = static_cast<uint32_t>(size() - mark - sizeof(uint32_t));
  if (mark >= spilled_) {
    std::memcpy(&buf_[mark - spilled_], &len, sizeof(len));
  } else {
    sink_->PatchU32(mark, len);
  }
}

// ---- ByteWriter: engine vocabulary ----

void ByteWriter::WriteValue(const Value& v) {
  WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      WriteBool(v.bool_value());
      break;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      WriteI64(v.int64_value());
      break;
    case ValueType::kDouble:
      WriteDouble(v.double_value());
      break;
    case ValueType::kString:
      WriteString(v.string_view());
      break;
  }
}

void ByteWriter::WriteTuple(const Tuple& t) {
  WriteU32(static_cast<uint32_t>(t.size()));
  for (int i = 0; i < t.size(); ++i) {
    WriteValue(t.value(i));
  }
  WriteI64(t.id());
  WriteI64(t.arrival_ms());
}

void ByteWriter::WriteAttrPattern(const AttrPattern& p) {
  WriteU8(static_cast<uint8_t>(p.op()));
  switch (p.op()) {
    case PatternOp::kAny:
    case PatternOp::kIsNull:
    case PatternOp::kNotNull:
      break;  // no operand
    case PatternOp::kRange:
      WriteValue(p.operand());
      WriteValue(p.hi());
      break;
    default:
      WriteValue(p.operand());
      break;
  }
}

void ByteWriter::WritePattern(const PunctPattern& p) {
  WriteU32(static_cast<uint32_t>(p.attrs().size()));
  for (const AttrPattern& a : p.attrs()) {
    WriteAttrPattern(a);
  }
}

void ByteWriter::WritePunctuation(const Punctuation& p) {
  WritePattern(p.pattern());
  WriteI64(p.barrier_id());
}

void ByteWriter::WriteGuardSet(const GuardSet& g) {
  WriteU32(static_cast<uint32_t>(g.patterns().size()));
  for (const PunctPattern& p : g.patterns()) {
    WritePattern(p);
  }
}

// ---- ByteReader ----

Status ByteReader::ReadRaw(void* out, size_t n) {
  if (data_.size() - pos_ < n) {
    return Status::InvalidArgument("serde: truncated: need " +
                                   std::to_string(n) + " bytes, have " +
                                   std::to_string(data_.size() - pos_));
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ReadU8(uint8_t* out) { return ReadRaw(out, 1); }

Status ByteReader::ReadBool(bool* out) {
  uint8_t b = 0;
  NSTREAM_RETURN_NOT_OK(ReadU8(&b));
  *out = b != 0;
  return Status::OK();
}

Status ByteReader::ReadU32(uint32_t* out) {
  return ReadRaw(out, sizeof(*out));
}

Status ByteReader::ReadU64(uint64_t* out) {
  return ReadRaw(out, sizeof(*out));
}

Status ByteReader::ReadI64(int64_t* out) {
  return ReadRaw(out, sizeof(*out));
}

Status ByteReader::ReadDouble(double* out) {
  return ReadRaw(out, sizeof(*out));
}

Status ByteReader::ReadString(std::string* out) {
  std::string_view sv;
  NSTREAM_RETURN_NOT_OK(ReadStringView(&sv));
  out->assign(sv.data(), sv.size());
  return Status::OK();
}

Status ByteReader::ReadStringView(std::string_view* out) {
  uint32_t n = 0;
  NSTREAM_RETURN_NOT_OK(ReadU32(&n));
  if (data_.size() - pos_ < n) {
    return Status::InvalidArgument("serde: truncated inside string");
  }
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ReadSection(std::string_view* out) {
  uint32_t n = 0;
  NSTREAM_RETURN_NOT_OK(ReadU32(&n));
  if (data_.size() - pos_ < n) {
    return Status::InvalidArgument("serde: truncated inside section");
  }
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ReadCount(uint32_t* out, size_t min_bytes,
                             const char* what) {
  NSTREAM_RETURN_NOT_OK(ReadU32(out));
  if (*out > remaining() / min_bytes) {
    return Status::InvalidArgument(
        std::string("serde: ") + what + " count " + std::to_string(*out) +
        " impossible for " + std::to_string(remaining()) +
        " remaining bytes");
  }
  return Status::OK();
}

Status ByteReader::ReadValue(Value* out) { return ReadValueIn(nullptr, out); }

Status ByteReader::ReadValueIn(TupleArena* arena, Value* out) {
  uint8_t raw = 0;
  NSTREAM_RETURN_NOT_OK(ReadU8(&raw));
  switch (static_cast<ValueType>(raw)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kBool: {
      bool b = false;
      NSTREAM_RETURN_NOT_OK(ReadBool(&b));
      *out = Value::Bool(b);
      return Status::OK();
    }
    case ValueType::kInt64: {
      int64_t i = 0;
      NSTREAM_RETURN_NOT_OK(ReadI64(&i));
      *out = Value::Int64(i);
      return Status::OK();
    }
    case ValueType::kTimestamp: {
      int64_t i = 0;
      NSTREAM_RETURN_NOT_OK(ReadI64(&i));
      *out = Value::Timestamp(i);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d = 0;
      NSTREAM_RETURN_NOT_OK(ReadDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case ValueType::kString: {
      // Bytes go straight from the input buffer into the arena (inline
      // when short, owned when arena is null) — no std::string stop.
      std::string_view sv;
      NSTREAM_RETURN_NOT_OK(ReadStringView(&sv));
      *out = Value::StringIn(arena, sv);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("serde: unknown value type tag " +
                                 std::to_string(raw));
}

Status ByteReader::ReadTupleValuesIn(TupleArena* arena, uint32_t nvals,
                                     Tuple* t) {
  for (uint32_t i = 0; i < nvals; ++i) {
    Value v;
    NSTREAM_RETURN_NOT_OK(ReadValueIn(arena, &v));
    t->Append(std::move(v));
  }
  int64_t id = 0;
  int64_t arrival = 0;
  NSTREAM_RETURN_NOT_OK(ReadI64(&id));
  NSTREAM_RETURN_NOT_OK(ReadI64(&arrival));
  t->set_id(id);
  t->set_arrival_ms(arrival);
  return Status::OK();
}

Status ByteReader::ReadTuple(Tuple* out) {
  uint32_t n = 0;
  // Each serialized value is at least its 1-byte type tag (counts can
  // arrive from a hostile wire peer, not just snapshots).
  NSTREAM_RETURN_NOT_OK(ReadCount(&n, 1, "tuple value"));
  Tuple t(nullptr, n);  // owned mode: results outlive the input buffer
  NSTREAM_RETURN_NOT_OK(ReadTupleValuesIn(nullptr, n, &t));
  *out = std::move(t);
  return Status::OK();
}

Status ByteReader::ReadAttrPattern(AttrPattern* out) {
  uint8_t raw = 0;
  NSTREAM_RETURN_NOT_OK(ReadU8(&raw));
  PatternOp op = static_cast<PatternOp>(raw);
  switch (op) {
    case PatternOp::kAny:
      *out = AttrPattern::Any();
      return Status::OK();
    case PatternOp::kIsNull:
      *out = AttrPattern::IsNull();
      return Status::OK();
    case PatternOp::kNotNull:
      *out = AttrPattern::NotNull();
      return Status::OK();
    case PatternOp::kRange: {
      Value lo, hi;
      NSTREAM_RETURN_NOT_OK(ReadValue(&lo));
      NSTREAM_RETURN_NOT_OK(ReadValue(&hi));
      *out = AttrPattern::Range(std::move(lo), std::move(hi));
      return Status::OK();
    }
    case PatternOp::kEq:
    case PatternOp::kNe:
    case PatternOp::kLt:
    case PatternOp::kLe:
    case PatternOp::kGt:
    case PatternOp::kGe: {
      Value v;
      NSTREAM_RETURN_NOT_OK(ReadValue(&v));
      switch (op) {
        case PatternOp::kEq: *out = AttrPattern::Eq(std::move(v)); break;
        case PatternOp::kNe: *out = AttrPattern::Ne(std::move(v)); break;
        case PatternOp::kLt: *out = AttrPattern::Lt(std::move(v)); break;
        case PatternOp::kLe: *out = AttrPattern::Le(std::move(v)); break;
        case PatternOp::kGt: *out = AttrPattern::Gt(std::move(v)); break;
        default: *out = AttrPattern::Ge(std::move(v)); break;
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("serde: unknown pattern op " +
                                 std::to_string(raw));
}

Status ByteReader::ReadPattern(PunctPattern* out) {
  uint32_t n = 0;
  // Each serialized AttrPattern is at least its 1-byte op tag.
  // Punctuation frames cross the wire, and a hostile peer must not be
  // able to drive a multi-GB allocation out of a few payload bytes.
  NSTREAM_RETURN_NOT_OK(ReadCount(&n, 1, "pattern attr"));
  std::vector<AttrPattern> attrs(n);
  for (uint32_t i = 0; i < n; ++i) {
    NSTREAM_RETURN_NOT_OK(ReadAttrPattern(&attrs[i]));
  }
  *out = PunctPattern(std::move(attrs));
  return Status::OK();
}

Status ByteReader::ReadPunctuation(Punctuation* out) {
  PunctPattern pat;
  NSTREAM_RETURN_NOT_OK(ReadPattern(&pat));
  int64_t barrier = 0;
  NSTREAM_RETURN_NOT_OK(ReadI64(&barrier));
  if (barrier != 0) {
    *out = Punctuation::Barrier(barrier);
  } else {
    *out = Punctuation(std::move(pat));
  }
  return Status::OK();
}

Status ByteReader::ReadGuardSet(GuardSet* g) {
  uint32_t n = 0;
  NSTREAM_RETURN_NOT_OK(ReadU32(&n));
  g->Clear();
  for (uint32_t i = 0; i < n; ++i) {
    PunctPattern p;
    NSTREAM_RETURN_NOT_OK(ReadPattern(&p));
    g->Add(p);
  }
  return Status::OK();
}

}  // namespace nstream
