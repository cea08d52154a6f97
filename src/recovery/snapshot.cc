#include "recovery/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace nstream {

namespace {

// Element kind tags inside serialized pages. Kept distinct from
// ElementKind so the wire format cannot drift silently if the enum is
// ever reordered.
constexpr uint8_t kWireTuple = 0;
constexpr uint8_t kWirePunct = 1;
constexpr uint8_t kWireEos = 2;

}  // namespace

// ---- Page contents ----

void WritePageElements(SnapshotWriter* w, Page& page) {
  page.EnsureRowLayout();
  w->WriteU32(static_cast<uint32_t>(page.elements().size()));
  for (const StreamElement& e : page.elements()) {
    switch (e.kind()) {
      case ElementKind::kTuple:
        w->WriteU8(kWireTuple);
        w->WriteTuple(e.tuple());
        break;
      case ElementKind::kPunctuation:
        w->WriteU8(kWirePunct);
        w->WritePunctuation(e.punct());
        break;
      case ElementKind::kEndOfStream:
        w->WriteU8(kWireEos);
        break;
    }
  }
}

Status ReadPageInto(SnapshotReader* r, Page* page) {
  uint32_t n = 0;
  // Each element is at least its 1-byte kind tag.
  NSTREAM_RETURN_NOT_OK(r->ReadCount(&n, 1, "page element"));
  page->Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    NSTREAM_RETURN_NOT_OK(r->ReadU8(&kind));
    switch (kind) {
      case kWireTuple: {
        Tuple t;
        NSTREAM_RETURN_NOT_OK(r->ReadTuple(&t));
        page->AddTuple(std::move(t));
        break;
      }
      case kWirePunct: {
        Punctuation p;
        NSTREAM_RETURN_NOT_OK(r->ReadPunctuation(&p));
        page->Add(StreamElement::OfPunct(std::move(p)));
        break;
      }
      case kWireEos:
        page->Add(StreamElement::Eos());
        break;
      default:
        return Status::InvalidArgument(
            "snapshot: unknown page element tag " + std::to_string(kind));
    }
  }
  return Status::OK();
}

// ---- File envelope ----

namespace {

constexpr uint64_t kHeaderBytes = 16;  // magic, version, payload length
constexpr uint64_t kLengthOffset = 8;  // of the u64 payload length

// Every byte of [p, p + n) to or from `offset`, across short transfers
// and EINTR. False on any other error, or on end of file for a read.
bool PWriteAll(int fd, const void* p, size_t n, uint64_t offset) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::pwrite(fd, c, n, static_cast<off_t>(offset));
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<size_t>(k);
    offset += static_cast<uint64_t>(k);
  }
  return true;
}

bool PReadAll(int fd, void* p, size_t n, uint64_t offset) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = ::pread(fd, c, n, static_cast<off_t>(offset));
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    c += k;
    n -= static_cast<size_t>(k);
    offset += static_cast<uint64_t>(k);
  }
  return true;
}

// The tmp file a snapshot streams into; the writer's stream offsets are
// file offsets. The first failure sticks and makes later writes no-ops.
class FileSink final : public ByteSink {
 public:
  explicit FileSink(int fd) : fd_(fd) {}
  int fd() const { return fd_; }

  void Append(std::string_view bytes) override {
    Put(bytes.data(), bytes.size(), end_);
    end_ += bytes.size();
  }
  void PatchU32(uint64_t offset, uint32_t v) override {
    Put(&v, sizeof(v), offset);
  }
  void Put(const void* p, size_t n, uint64_t offset) {
    if (err_ == 0 && !PWriteAll(fd_, p, n, offset)) Fail();
  }
  /// Records errno (EIO when a call failed without one) unless an
  /// earlier failure is already recorded.
  void Fail() {
    if (err_ == 0) err_ = errno != 0 ? errno : EIO;
  }
  int err() const { return err_; }

 private:
  int fd_;
  uint64_t end_ = 0;
  int err_ = 0;
};

Status WriteEnvelope(
    FileSink* sink, CheckpointCrashMode crash,
    const std::function<Status(SnapshotWriter*)>& write_payload) {
  SnapshotWriter w(sink);
  w.WriteU32(kSnapshotMagic);
  w.WriteU32(kSnapshotVersion);
  w.WriteU64(0);  // the payload length, written last
  NSTREAM_RETURN_NOT_OK(write_payload(&w));
  w.Flush();
  const uint64_t len = w.size() - kHeaderBytes;
  // The CRC covers the payload as it lies in the file: section lengths
  // were patched there after their bytes spilled.
  uint32_t crc = 0;
  char block[SnapshotWriter::kSpillBytes];
  for (uint64_t at = 0; sink->err() == 0 && at < len;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(sizeof(block), len - at));
    if (!PReadAll(sink->fd(), block, n, kHeaderBytes + at)) {
      sink->Fail();
      break;
    }
    crc = SnapshotCrc32(std::string_view(block, n), crc);
    at += n;
  }
  sink->Append(std::string_view(reinterpret_cast<const char*>(&crc),
                                sizeof(crc)));
  sink->Put(&len, sizeof(len), kLengthOffset);
  if (crash == CheckpointCrashMode::kMidWrite) {
    // Torn file: the header and part of the payload.
    const auto half =
        static_cast<off_t>((kHeaderBytes + len + sizeof(crc)) / 2);
    while (sink->err() == 0 && ::ftruncate(sink->fd(), half) != 0) {
      if (errno != EINTR) sink->Fail();
    }
  }
  return Status::OK();
}

}  // namespace

Status StreamSnapshotFile(
    const std::string& path, CheckpointCrashMode crash,
    const std::function<Status(SnapshotWriter*)>& write_payload) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::Internal("snapshot: cannot open " + tmp +
                            " for writing: " + std::strerror(errno));
  }
  FileSink sink(fd);
  Status st = WriteEnvelope(&sink, crash, write_payload);
  // Linux releases the descriptor even when close reports EINTR.
  if (::close(fd) != 0 && errno != EINTR) sink.Fail();
  if (st.ok() && sink.err() != 0) {
    st = Status::Internal("snapshot: write to " + tmp +
                          " failed: " + std::strerror(sink.err()));
  }
  if (st.ok() && crash == CheckpointCrashMode::kNone &&
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal("snapshot: rename " + tmp + " -> " + path +
                          " failed");
  }
  if (!st.ok()) std::remove(tmp.c_str());
  return st;
}

namespace {

Status StreamPayload(const std::string& path, CheckpointCrashMode crash,
                     std::string_view payload) {
  return StreamSnapshotFile(path, crash, [payload](SnapshotWriter* w) {
    w->WriteBytes(payload);
    return Status::OK();
  });
}

}  // namespace

Status WriteSnapshotFile(const std::string& path,
                         std::string_view payload) {
  return StreamPayload(path, CheckpointCrashMode::kNone, payload);
}

Status WriteSnapshotFileCrash(const std::string& path,
                              std::string_view payload,
                              bool truncate_mid_write) {
  return StreamPayload(path,
                       truncate_mid_write ? CheckpointCrashMode::kMidWrite
                                          : CheckpointCrashMode::kBeforeRename,
                       payload);
}

namespace {

Result<std::string> ReadEnvelope(int fd, const std::string& path) {
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    return Status::Internal("snapshot: cannot stat " + path);
  }
  const auto file_size = static_cast<uint64_t>(sb.st_size);
  char header[kHeaderBytes];
  const size_t got =
      static_cast<size_t>(std::min<uint64_t>(file_size, kHeaderBytes));
  if (!PReadAll(fd, header, got, 0)) {
    return Status::Internal("snapshot: cannot read " + path);
  }
  SnapshotReader r(std::string_view(header, got));
  uint32_t magic = 0, version = 0;
  uint64_t len = 0;
  NSTREAM_RETURN_NOT_OK(r.ReadU32(&magic));
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("snapshot: bad magic in " + path);
  }
  NSTREAM_RETURN_NOT_OK(r.ReadU32(&version));
  if (version != kSnapshotVersion) {
    return Status::Unsupported("snapshot: version " +
                               std::to_string(version) +
                               " not supported (want " +
                               std::to_string(kSnapshotVersion) + ")");
  }
  NSTREAM_RETURN_NOT_OK(r.ReadU64(&len));  // so the file holds a header
  // Payload and CRC must fit in the file. Compared without forming
  // len + 4, which a forged length wraps.
  const uint64_t body = file_size - kHeaderBytes;
  if (len > body || body - len < sizeof(uint32_t)) {
    return Status::InvalidArgument("snapshot: " + path +
                                   " truncated (torn write?)");
  }
  std::string payload(static_cast<size_t>(len), '\0');
  uint32_t stored_crc = 0;
  if (!PReadAll(fd, payload.data(), payload.size(), kHeaderBytes) ||
      !PReadAll(fd, &stored_crc, sizeof(stored_crc), kHeaderBytes + len)) {
    return Status::Internal("snapshot: cannot read " + path);
  }
  if (SnapshotCrc32(payload) != stored_crc) {
    return Status::InvalidArgument("snapshot: CRC mismatch in " + path +
                                   " (corrupted)");
  }
  return payload;
}

}  // namespace

Result<std::string> ReadSnapshotFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("snapshot: cannot open " + path);
  }
  Result<std::string> out = ReadEnvelope(fd, path);
  ::close(fd);
  return out;
}

}  // namespace nstream
