// Checks of the bench's own measurement code: percentile math, the
// reference join/aggregate, the Definition-1 check, and the generator.

#ifndef NSTREAM_BENCH_E2E_SELFTEST_H_
#define NSTREAM_BENCH_E2E_SELFTEST_H_

namespace nstream::e2e {

/// Prints one line per check; true when all pass.
bool RunSelftest();

}  // namespace nstream::e2e

#endif  // NSTREAM_BENCH_E2E_SELFTEST_H_
