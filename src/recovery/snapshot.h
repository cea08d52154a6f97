// Versioned binary snapshot format for punctuation-aligned
// checkpoint/recovery (ROADMAP item 5). A snapshot captures operator
// state (join tables, window partials, guard sets, source offsets)
// and in-flight queue pages at a punctuation-aligned cut, so a plan
// can resume after a crash with at-least-once delivery.
//
// Layering: the byte codec lives in serde/serde.h (ByteWriter /
// ByteReader) and is SHARED with the ingest wire format — the engine
// has exactly one binary encoding of Value/Tuple/patterns.
// SnapshotWriter/SnapshotReader below are those codecs under their
// recovery-facing names. WHAT an operator writes is the operator's
// business (Operator::SnapshotState overrides); the file envelope
// below adds versioning, atomicity, and corruption detection on top.
//
// File envelope:
//
//   u32 magic  u32 version  u64 payload_len  payload...  u32 crc32
//
// written to `path + ".tmp"` and published with rename(2), so `path`
// only ever names a COMPLETE snapshot — a crash mid-write leaves the
// previous snapshot intact. ReadSnapshotFile verifies magic, version,
// length, and CRC, turning torn or corrupted files into clean errors
// instead of garbage state.

#ifndef NSTREAM_RECOVERY_SNAPSHOT_H_
#define NSTREAM_RECOVERY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serde/serde.h"
#include "stream/page.h"

namespace nstream {

inline constexpr uint32_t kSnapshotMagic = 0x4E535031;  // "NSP1"
/// v2: IngestSource sections lost their leading producer-mode flag.
inline constexpr uint32_t kSnapshotVersion = 2;

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`.
inline uint32_t SnapshotCrc32(std::string_view data) {
  return SerdeCrc32(data);
}

/// The shared byte codec under its recovery-facing name. Concrete
/// classes (not aliases) so `class SnapshotWriter;` forward
/// declarations — e.g. in exec/operator.h — keep resolving.
class SnapshotWriter : public ByteWriter {};

class SnapshotReader : public ByteReader {
 public:
  using ByteReader::ByteReader;
};

/// Serialize a page's elements (tuples / punctuation / EOS markers) in
/// order. Materializes the row layout first — columnar pages hold
/// arena-resident value arrays that must be walked row-wise — hence
/// the mutable reference. Content-only: arenas and flush reasons are
/// reconstructed on read.
void WritePageElements(SnapshotWriter* w, Page& page);
/// Rebuild a page from WritePageElements bytes. Tuples are appended
/// via AddTuple, so they land in `page`'s own ownership domain.
Status ReadPageInto(SnapshotReader* r, Page* page);

/// Atomically publish `payload` (wrapped in the file envelope) at
/// `path` via tmp-file + rename.
Status WriteSnapshotFile(const std::string& path, std::string_view payload);

/// Crash-injection twin of WriteSnapshotFile: writes the tmp file —
/// truncated mid-payload when `truncate_mid_write`, complete otherwise
/// — but never renames, simulating a crash before the snapshot is
/// published. `path` keeps naming the previous complete snapshot.
Status WriteSnapshotFileCrash(const std::string& path,
                              std::string_view payload,
                              bool truncate_mid_write);

/// Read + verify (magic, version, length, CRC) a snapshot file;
/// returns the payload bytes.
Result<std::string> ReadSnapshotFile(const std::string& path);

}  // namespace nstream

#endif  // NSTREAM_RECOVERY_SNAPSHOT_H_
