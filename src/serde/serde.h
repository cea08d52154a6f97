// The engine's ONE binary encoding of its scalar vocabulary (Value,
// Tuple, AttrPattern, PunctPattern, Punctuation, GuardSet), shared by
// the snapshot format (recovery/snapshot.h) and the wire frame format
// (ingest/wire_format.h). Factored out of the snapshot codec so the
// two surfaces cannot drift: a tuple serialized into a checkpoint and
// a tuple serialized into a network frame are byte-for-byte the same
// encoding.
//
// ByteWriter is an append-only little-endian sink that never fails;
// sizing errors surface on the read side. It builds its bytes in
// memory, or, given a ByteSink, hands them on every kSpillBytes so a
// snapshot streams to its file through one fixed buffer. ByteReader is
// bounds-checked: every read returns a Status, so truncated or
// malformed input fails cleanly — the property both torn snapshot
// files and corrupted wire frames lean on.
//
// Two read flavors for payload-bearing types:
//
//   ReadValue / ReadTuple      self-contained results (inline or
//                              heap-owned strings) — snapshots, whose
//                              results outlive the input buffer;
//   ReadValueIn / ReadTupleIn  arena-targeted results: string bytes go
//                              straight from the input buffer into the
//                              destination arena (inline when ≤15 B),
//                              no intermediate std::string — the
//                              ingest zero-copy parse path. With a
//                              null arena they degrade to owned
//                              storage, so arena-off runs share the
//                              code path.

#ifndef NSTREAM_SERDE_SERDE_H_
#define NSTREAM_SERDE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/guards.h"
#include "punct/punct_pattern.h"
#include "types/tuple.h"
#include "types/value.h"

namespace nstream {

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`. Chains like
/// zlib's crc32: pass the CRC of the bytes before `data` as `crc` to
/// continue it over a stream read in blocks.
uint32_t SerdeCrc32(std::string_view data, uint32_t crc = 0);

/// Where a spilling ByteWriter's bytes go. Stream offsets count every
/// byte the writer was given, from 0.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  /// Appends `bytes` after everything appended so far.
  virtual void Append(std::string_view bytes) = 0;
  /// Overwrites the u32 at stream offset `offset`, appended earlier.
  virtual void PatchU32(uint64_t offset, uint32_t v) = 0;
};

/// Append-only little-endian byte sink. Writers never fail; sizing
/// errors surface on the read side (a ByteSink keeps its own).
class ByteWriter {
 public:
  /// A writer given a sink never buffers more than this many bytes.
  static constexpr size_t kSpillBytes = size_t{64} << 10;

  ByteWriter() = default;
  /// Spilling writer: bytes reach `sink` whenever the buffer would
  /// outgrow kSpillBytes, and at Flush(). The sink must outlive it.
  explicit ByteWriter(ByteSink* sink) : sink_(sink) {
    buf_.reserve(kSpillBytes);
  }

  void WriteU8(uint8_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(s);
  }
  /// Raw bytes, no length prefix.
  void WriteBytes(std::string_view s) { AppendRaw(s.data(), s.size()); }

  // Engine vocabulary. Strings inside values are written as raw bytes
  // and restored self-contained (inline/heap-owned) or into the
  // reader's target arena, so serialized bytes never reference arena
  // memory.
  void WriteValue(const Value& v);
  void WriteTuple(const Tuple& t);
  void WriteAttrPattern(const AttrPattern& p);
  void WritePattern(const PunctPattern& p);
  void WritePunctuation(const Punctuation& p);
  void WriteGuardSet(const GuardSet& g);

  /// Length-prefixed nested blob: readers can skip a section they do
  /// not understand (or do not want — e.g. an operators-only restore
  /// skipping queue sections), and a buggy section codec cannot
  /// overrun into its neighbours.
  void WriteSection(std::string_view bytes) { WriteString(bytes); }
  /// The same section written in place: BeginSection writes a zero
  /// length and returns its stream offset; EndSection(mark) sets it to
  /// the bytes written since — in the buffer while they are there,
  /// through the sink once they have spilled.
  uint64_t BeginSection() {
    const uint64_t mark = size();
    WriteU32(0);
    return mark;
  }
  void EndSection(uint64_t mark);

  /// Hands the buffered bytes to the sink (no-op without one).
  void Flush();

  /// The bytes not yet spilled: everything, for an in-memory writer.
  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  /// Bytes written so far, spilled or buffered.
  uint64_t size() const { return spilled_ + buf_.size(); }

 private:
  void AppendRaw(const void* p, size_t n) {
    if (sink_ != nullptr && buf_.size() + n > kSpillBytes) {
      return SpillAppend(p, n);
    }
    buf_.append(static_cast<const char*>(p), n);
  }
  void SpillAppend(const void* p, size_t n);

  std::string buf_;
  ByteSink* sink_ = nullptr;
  uint64_t spilled_ = 0;  // stream offset of buf_[0]
};

/// Bounds-checked reader over a serialized payload. Every read returns
/// a Status; truncated or malformed input fails cleanly.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out);
  Status ReadBool(bool* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI64(int64_t* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);
  /// Zero-copy string read: a view into the underlying buffer, valid
  /// only while the buffer outlives the view. The ingest parse path
  /// forwards these views straight into page arenas.
  Status ReadStringView(std::string_view* out);

  Status ReadValue(Value* out);
  Status ReadTuple(Tuple* out);
  /// Arena-targeted flavors: string payloads land inline or in
  /// `arena` (owned when arena is null) with no intermediate
  /// materialization. ReadTupleIn appends `nvals` values to `t`,
  /// which the caller constructs against the same arena.
  Status ReadValueIn(TupleArena* arena, Value* out);
  Status ReadTupleValuesIn(TupleArena* arena, uint32_t nvals, Tuple* t);
  Status ReadAttrPattern(AttrPattern* out);
  Status ReadPattern(PunctPattern* out);
  Status ReadPunctuation(Punctuation* out);
  /// Clears `g` and re-installs the stored patterns (recompiling via
  /// the global CompiledPatternCache).
  Status ReadGuardSet(GuardSet* g);

  /// View of the next length-prefixed section (see WriteSection);
  /// advances past it.
  Status ReadSection(std::string_view* out);

  /// Reads a u32 element count and rejects one the remaining bytes
  /// cannot hold at `min_bytes` per element, so a forged count fails
  /// before the caller reserves for it. `what` names the count in the
  /// error.
  Status ReadCount(uint32_t* out, size_t min_bytes, const char* what);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status ReadRaw(void* out, size_t n);
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_SERDE_SERDE_H_
