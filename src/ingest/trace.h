// Frame trace record/replay. A trace file is the admitted frames in
// admission order, each as a tagged record `u64 producer | u32 size |
// frame bytes` — no envelope of its own. Recording every admitted
// frame gives (a) reproducible ingest runs, and (b) the replay
// substrate recovery needs: a crashed plan restores its per-producer
// acknowledged offsets from the checkpoint and re-ingests the SAME
// tagged frames, skipping what it already admitted.

#ifndef NSTREAM_INGEST_TRACE_H_
#define NSTREAM_INGEST_TRACE_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/status.h"
#include "ingest/frame_conduit.h"

namespace nstream {

/// Appends admitted frames to a file as they are parsed. Opened by
/// IngestSource when its options name a trace path.
class FrameTraceWriter {
 public:
  FrameTraceWriter() = default;
  ~FrameTraceWriter() { (void)Close(); }

  FrameTraceWriter(const FrameTraceWriter&) = delete;
  FrameTraceWriter& operator=(const FrameTraceWriter&) = delete;

  Status Open(const std::string& path);
  /// Append one record. Records are written in admission order, so a
  /// replay preserves both the global interleaving and per-producer
  /// frame order.
  Status AppendTagged(uint64_t producer, std::string_view frame_bytes);
  Status Close();
  bool is_open() const { return f_ != nullptr; }

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
};

/// Whole-file read (trace replay, test fixtures).
Result<std::string> ReadTraceFile(const std::string& path);

/// Replay a trace: each record re-enters the conduit as a MuxFrame in
/// recorded (admission) order, then the write side closes. Trusted
/// local input — records bypass the mux budget.
Status ReplayMuxTraceIntoConduit(const std::string& path,
                                 FrameConduit* conduit);

}  // namespace nstream

#endif  // NSTREAM_INGEST_TRACE_H_
