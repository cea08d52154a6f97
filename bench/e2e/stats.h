// Measurement helpers shared by the end-to-end bench: the monotonic
// clock every timestamp in the bench is taken from (generator and
// engine processes share it), percentile math, and per-thread CPU and
// peak-memory readings from /proc.

#ifndef NSTREAM_BENCH_E2E_STATS_H_
#define NSTREAM_BENCH_E2E_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nstream::e2e {

/// CLOCK_MONOTONIC in nanoseconds. Due times, send times and receipt
/// times all come from this clock, so they compare across processes.
int64_t MonoNs();

/// Percentile `p` (0..100) of an ascending vector, interpolating
/// linearly between the closest ranks (numpy's default, and Python's
/// statistics.quantiles(method="inclusive")). 0 for an empty vector.
double PercentileSorted(const std::vector<double>& sorted, double p);

double Median(std::vector<double> v);

struct Dist {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;
};
Dist Distribution(std::vector<double> v);

/// Thread ids of this process (/proc/self/task), ascending.
std::vector<int> ThreadIds();
/// Ids in `after` that are not in `before`.
std::vector<int> NewThreads(const std::vector<int>& before,
                            const std::vector<int>& after);
/// CPU time a thread of this process has used, in ns: the run time in
/// /proc/self/task/<tid>/schedstat, or utime + stime from .../stat
/// where schedstat is missing. -1 if the thread is gone.
int64_t ThreadCpuNs(int tid);
int64_t SumThreadCpuNs(const std::vector<int>& tids);

/// VmHWM of this process, in MiB.
double PeakRssMb();
/// Lower VmHWM to the current RSS (/proc/self/clear_refs), so that
/// PeakRssMb() then reports the peak since this call. Where the kernel
/// refuses, VmHWM stays the peak since the process started.
void ResetPeakRss();

}  // namespace nstream::e2e

#endif  // NSTREAM_BENCH_E2E_STATS_H_
