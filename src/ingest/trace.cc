#include "ingest/trace.h"

#include <cstring>

namespace nstream {

Status FrameTraceWriter::Open(const std::string& path) {
  (void)Close();
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    return Status::Internal("trace: cannot open " + path + " for writing");
  }
  path_ = path;
  return Status::OK();
}

Status FrameTraceWriter::AppendTagged(uint64_t producer,
                                      std::string_view frame_bytes) {
  if (f_ == nullptr) {
    return Status::FailedPrecondition("trace: writer not open");
  }
  char header[12];
  std::memcpy(header, &producer, 8);
  const uint32_t size = static_cast<uint32_t>(frame_bytes.size());
  std::memcpy(header + 8, &size, 4);
  if (std::fwrite(header, 1, sizeof(header), f_) != sizeof(header) ||
      (size != 0 &&
       std::fwrite(frame_bytes.data(), 1, frame_bytes.size(), f_) !=
           frame_bytes.size())) {
    return Status::Internal("trace: short write to " + path_);
  }
  return Status::OK();
}

Status FrameTraceWriter::Close() {
  if (f_ == nullptr) return Status::OK();
  int rc = std::fclose(f_);
  f_ = nullptr;
  if (rc != 0) {
    return Status::Internal("trace: close failed for " + path_);
  }
  return Status::OK();
}

Result<std::string> ReadTraceFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("trace: cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

Status ReplayMuxTraceIntoConduit(const std::string& path,
                                 FrameConduit* conduit) {
  NSTREAM_ASSIGN_OR_RETURN(std::string bytes, ReadTraceFile(path));
  size_t off = 0;
  while (off < bytes.size()) {
    if (bytes.size() - off < 12) {
      return Status::InvalidArgument("trace: truncated mux record in " +
                                     path);
    }
    uint64_t producer = 0;
    uint32_t size = 0;
    std::memcpy(&producer, bytes.data() + off, 8);
    std::memcpy(&size, bytes.data() + off + 8, 4);
    off += 12;
    if (bytes.size() - off < size) {
      return Status::InvalidArgument("trace: truncated mux record in " +
                                     path);
    }
    conduit->ForceMuxFrame(producer, bytes.substr(off, size));
    off += size;
  }
  conduit->CloseWrite();
  return Status::OK();
}

}  // namespace nstream
