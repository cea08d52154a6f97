// The engine side of the end-to-end bench: builds each workload's plan
// behind TcpAcceptors on a 2-worker PooledExecutor, drives the phases
// (saturation, latency) against the forked generator, checks
// every output against the reference, and turns the measurements into
// named metrics.

#ifndef NSTREAM_BENCH_E2E_ENGINE_H_
#define NSTREAM_BENCH_E2E_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace nstream::e2e {

struct RunOptions {
  WorkloadKind workload = WorkloadKind::kIngestFanin;
  uint64_t seed = 1;
  Sizes sizes;
  /// Traced run: per-layer metrics (taps, /proc CPU, counters,
  /// replays) instead of end-to-end ones.
  bool trace = false;
  /// Checkpoint snapshots go here.
  std::string scratch_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count, base of a ratio, ...
};

struct WorkloadReport {
  bool correct = true;
  int64_t attempted = 0;  // frames the generator attempted
  int64_t failed = 0;     // failed frames + result mismatches
  /// The BENCHMARK.json set: end-to-end metrics untraced, per-layer
  /// metrics traced.
  std::vector<Metric> metrics;
  /// Printed and recorded, but outside the BENCHMARK.json set (they are
  /// undefined on some workloads, or not gated).
  std::vector<Metric> extras;
  std::vector<std::string> problems;
};

/// Run one workload in this process. Forks the generator first, so it
/// must be called before this process starts any thread.
Status RunWorkload(const RunOptions& opts, WorkloadReport* out);

}  // namespace nstream::e2e

#endif  // NSTREAM_BENCH_E2E_ENGINE_H_
