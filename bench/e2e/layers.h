// Per-layer costs measured by replaying a workload's own frames and
// pages, single-threaded, through the layers' public functions:
// ScanFrame + DecodeTupleBatchInto for the ingest parse, and each
// operator's ProcessPage (Exchange → join shards → ShardMerge →
// WindowAggregate) with a context that only captures what they emit.
// Replays run without feedback.

#ifndef NSTREAM_BENCH_E2E_LAYERS_H_
#define NSTREAM_BENCH_E2E_LAYERS_H_

#include <cstdint>

#include "common/status.h"
#include "workload.h"

namespace nstream::e2e {

struct ReplayCosts {
  double parse_ns_per_tuple = 0;
  // Join workloads only (0 otherwise).
  double exchange_ns_per_tuple = 0;
  double join_ns_per_tuple = 0;
  double agg_ns_per_tuple = 0;
  // WindowAggregate::state_size(), sampled after every replayed page.
  int64_t agg_state_peak = 0;
};

Status ReplayLayers(WorkloadKind w, const Sizes& s, uint64_t seed,
                    ReplayCosts* out);

}  // namespace nstream::e2e

#endif  // NSTREAM_BENCH_E2E_LAYERS_H_
