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
// streamed to `path + ".tmp"` through one kSpillBytes buffer and
// published with rename(2), so `path` only ever names a COMPLETE
// snapshot — a crash mid-write leaves the previous snapshot intact.
// payload_len is written last, so a tmp file cut short anywhere reads
// as truncated. ReadSnapshotFile verifies magic, version, length, and
// CRC, turning torn or corrupted files into clean errors instead of
// garbage state.

#ifndef NSTREAM_RECOVERY_SNAPSHOT_H_
#define NSTREAM_RECOVERY_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "serde/serde.h"
#include "stream/page.h"

namespace nstream {

inline constexpr uint32_t kSnapshotMagic = 0x4E535031;  // "NSP1"
/// v2: IngestSource sections lost their leading producer-mode flag.
/// v3: UnionOp sections (and so Pace and ShardMerge) carry guards and
/// a punctuation combiner; IngestSource sections carry each
/// producer's combiner port and the combiner.
inline constexpr uint32_t kSnapshotVersion = 3;

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`, continuing
/// `crc` (see SerdeCrc32).
inline uint32_t SnapshotCrc32(std::string_view data, uint32_t crc = 0) {
  return SerdeCrc32(data, crc);
}

/// The shared byte codec under its recovery-facing name. Concrete
/// classes (not aliases) so `class SnapshotWriter;` forward
/// declarations — e.g. in exec/operator.h — keep resolving.
class SnapshotWriter : public ByteWriter {
 public:
  using ByteWriter::ByteWriter;
};

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

/// Crash-injection seam for the recovery tests: where a snapshot
/// write "dies". Both crash modes leave `path` naming the previous
/// complete snapshot (tmp written, never renamed), so recovery always
/// loads a consistent — possibly older — cut.
enum class CheckpointCrashMode : uint8_t {
  kNone = 0,      // normal atomic publish (tmp + rename)
  kMidWrite,      // crash mid-payload: truncated tmp, no rename
  kBeforeRename,  // crash between write and publish: full tmp, no rename
};

/// Streams one snapshot to `path + ".tmp"`: the header with length 0,
/// then the payload as `write_payload` writes it into a writer that
/// spills to the file every SnapshotWriter::kSpillBytes, then the CRC
/// over the payload read back from the file, then the real length.
/// kNone publishes the file at `path` with rename(2); the crash modes
/// leave the tmp file (cut to half the envelope for kMidWrite) and
/// return OK. Any error removes the tmp file and leaves `path` as it
/// was. The write holds one spill buffer, whatever the payload's size.
Status StreamSnapshotFile(
    const std::string& path, CheckpointCrashMode crash,
    const std::function<Status(SnapshotWriter*)>& write_payload);

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
/// returns the payload bytes, read once from the file into the result.
Result<std::string> ReadSnapshotFile(const std::string& path);

}  // namespace nstream

#endif  // NSTREAM_RECOVERY_SNAPSHOT_H_
