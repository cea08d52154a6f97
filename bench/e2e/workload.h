// Workload definitions for the end-to-end bench: what each producer
// connection sends (tuple content, frame cut, send schedule) and the
// independent reference each run's outputs are checked against. The
// generator process and the engine process both call these functions
// with the same seed; only the generator turns them into wire bytes,
// and the engine receives nothing but those bytes.

#ifndef NSTREAM_BENCH_E2E_WORKLOAD_H_
#define NSTREAM_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "punct/punct_pattern.h"
#include "types/schema.h"

namespace nstream::e2e {

enum class WorkloadKind : int {
  kIngestFanin = 0,
  kJoinAgg,
  kJoinAggFeedback,
  kJoinAggCkpt,
};
inline constexpr WorkloadKind kAllWorkloads[] = {
    WorkloadKind::kIngestFanin, WorkloadKind::kJoinAgg,
    WorkloadKind::kJoinAggFeedback, WorkloadKind::kJoinAggCkpt};

const char* WorkloadName(WorkloadKind w);
std::optional<WorkloadKind> ParseWorkload(std::string_view name);
inline bool IsJoin(WorkloadKind w) { return w != WorkloadKind::kIngestFanin; }

/// The saturation phase writes a fixed input as fast as the engine takes
/// it; the latency phase sends at a fixed offered rate. The values seed
/// the inputs.
enum class PhaseKind : int { kSaturation = 1, kLatency = 2 };
const char* PhaseName(PhaseKind p);

/// The saturation phase is a closed loop. The sink reports its progress
/// (join workloads: windows closed; ingest_fanin: tuples received) and
/// the generator keeps at most this much input in flight past it. The
/// engine always has work queued, but its queues, which are unbounded,
/// hold a live stream's working set instead of the whole input.
inline constexpr int64_t kSatWindowsInFlight = 2;
inline constexpr int64_t kFaninSatInFlight = 512;  // tuples per connection
/// ingest_fanin's sink reports progress every this many tuples.
inline constexpr int64_t kFaninProgressStep = 128;

/// The latency phase's offered rates.
inline constexpr double kFaninRate = 125'000;  // tuples/s per connection
inline constexpr double kJoinRate = 300'000;   // tuples/s per stream

struct Sizes {
  int64_t fanin_sat_tuples = 250'000;  // per connection
  int64_t join_sat_windows = 10;       // 300 k tuples per stream
  double latency_s = 8.0;
  /// Saturation reps that only warm up, before the measured ones.
  int warmup_reps = 2;
  /// Measured saturation reps run until this time is up.
  double sat_s = 12.0;
  int min_sat_reps = 3;

  /// A run measuring for `seconds`: 40% latency phase, 60% saturation.
  static Sizes ForSeconds(double seconds);
  /// Tiny inputs and a 1 s latency phase: every check, little time.
  static Sizes Smoke();
};

// ---- ingest_fanin -------------------------------------------------

inline constexpr int kFaninConns = 4;
inline constexpr int kFaninFrameTuples = 16;
/// Saturation input per connection cycles through this many distinct
/// tuples (the engine's work does not depend on repetition, and the
/// generator keeps only one cycle of frames in memory).
inline constexpr int64_t kFaninSatCycle = 1 << 17;

SchemaPtr FaninSchema();  // (a int64, s string, b int64, due_ns int64)

struct FaninTuple {
  int64_t a = 0;
  int64_t b = 0;
  uint8_t len = 0;
  char s[24] = {};
  std::string_view str() const { return std::string_view(s, len); }
};

/// One connection's tuples in send order. The saturation phase repeats
/// the first kFaninSatCycle tuples.
class FaninStream {
 public:
  FaninStream(uint64_t seed, PhaseKind phase, int conn);
  FaninTuple Next();

 private:
  uint64_t stream_seed_;
  int64_t period_;
  int64_t pos_ = 0;
  Rng rng_;
};

/// The Select's predicate: keeps ~90% of tuples.
inline bool FaninKeep(int64_t a) { return a % 10 != 0; }
/// Tuples whose latency (and admission time) the sink and taps sample:
/// 1 in 64, ~56 k in a 7.2 s latency phase.
inline bool FaninSampled(int64_t a) { return ((a >> 4) & 63) == 0; }
uint64_t FaninTupleHash(int64_t a, std::string_view s, int64_t b);

/// Order-independent fingerprint of a tuple multiset.
struct FaninDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(uint64_t h) {
    ++count;
    sum += h;
  }
  bool operator==(const FaninDigest& o) const {
    return count == o.count && sum == o.sum;
  }
};

int64_t FaninTuplesPerConn(const Sizes& s, PhaseKind p);
/// Digest of the tuples the Select should pass, over all connections.
FaninDigest FaninReference(uint64_t seed, PhaseKind p, int64_t per_conn);

// ---- join workloads -----------------------------------------------

inline constexpr int kJoinFrameTuples = 256;
inline constexpr int64_t kTuplesPerMs = 300;  // event time: 1 ms / 300 tuples
inline constexpr int64_t kWindowMs = 100;
inline constexpr int64_t kJitterMs = 20;
inline constexpr int64_t kTuplesPerWindow = kTuplesPerMs * kWindowMs;
inline constexpr int64_t kKeySpace = 37'500;  // ~80% of keys match
inline constexpr int64_t kGroups = 64;

SchemaPtr JoinLeftSchema();   // (k int64, ts timestamp, g int64, lv int64)
SchemaPtr JoinRightSchema();  // (k int64, rts timestamp, rv int64)

struct JoinTuple {
  int64_t k = 0;
  int64_t ts = 0;
  int64_t g = 0;  // left stream only
  int64_t v = 0;
  int64_t arrival = 0;  // event ms at which the producer sends it
};

/// The tuples of window `w` on `side` (0 = left, 1 = right) in
/// timestamp order, generated a slice at a time so a paced generator
/// never stalls on a whole window; each key appears once per window.
class JoinWindowGen {
 public:
  JoinWindowGen(uint64_t seed, PhaseKind p, int side, int64_t w);
  /// Appends the next (up to) `n` tuples to `out`.
  void Next(int64_t n, std::vector<JoinTuple>* out);

 private:
  Rng rng_;
  int side_;
  int64_t w_;
  int64_t j_ = 0;
  std::vector<int32_t> keys_;
};
std::vector<JoinTuple> JoinWindowTuples(uint64_t seed, PhaseKind p, int side,
                                        int64_t w);
int64_t JoinWindows(const Sizes& s, PhaseKind p);

inline int64_t WindowEnd(int64_t w) { return (w + 1) * kWindowMs; }

/// One aggregate result: AVG(rv) of window `w`'s join results, per g.
struct AggRow {
  int64_t window_end = 0;
  int64_t g = 0;
  double avg = 0;
};
/// The reference join + aggregate of one window, computed directly.
std::vector<AggRow> ReferenceWindowAgg(const std::vector<JoinTuple>& left,
                                       const std::vector<JoinTuple>& right,
                                       int64_t w);

/// The assumed feedback the sink issues for window `w` (when window
/// w-2 closes): ¬[window_end = end(w), g ∈ hidden half]. The hidden
/// half flips every 10 windows (one second of event time).
PunctPattern FeedbackPattern(int64_t w);

/// Definition-1 check of one window's results. With `feedback` null the
/// results must equal the reference exactly.
struct WindowCheck {
  int64_t missing = 0;  // uncovered reference rows absent from the output
  int64_t extra = 0;    // output rows the reference does not have
  int64_t suppressed = 0;
};
WindowCheck CheckWindow(const std::vector<AggRow>& reference,
                        const std::vector<AggRow>& actual,
                        const PunctPattern* feedback);

// ---- wire frames ----------------------------------------------------

struct WireFrame {
  std::string bytes;
  int64_t due_off_ns = 0;     // send time relative to the phase start
  int64_t punct_window = -1;  // window a punctuation frame closes
  /// Saturation: this frame, and those before it, may go out once the
  /// sink's progress report reaches this value.
  std::optional<int64_t> send_at_progress;
};

/// One connection's frame stream: hello first, EOS last. Tuples that
/// carry their due time get t0_ns + due_off_ns stamped in.
class FrameSource {
 public:
  virtual ~FrameSource() = default;
  virtual bool Next(int64_t t0_ns, WireFrame* out) = 0;
};

int NumConnections(WorkloadKind w);
std::unique_ptr<FrameSource> MakeFrameSource(WorkloadKind w, const Sizes& s,
                                             uint64_t seed, PhaseKind p,
                                             int conn);

}  // namespace nstream::e2e

#endif  // NSTREAM_BENCH_E2E_WORKLOAD_H_
