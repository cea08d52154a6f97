// WindowAggregate: grouped window aggregation (COUNT / SUM / AVG / MAX
// / MIN) in the WID/OOP style — state is keyed by (window-id, group),
// results are produced and state purged when embedded punctuation
// closes windows, and arrival order is irrelevant.
//
// This operator carries the paper's richest feedback characterization:
//   * Table 1 (COUNT) rows, generalized by monotonicity to SUM/MAX/MIN
//     via core/aggregate_feedback;
//   * the §3.5 AVERAGE example (non-monotone ⇒ output guard only, with
//     the "window 4 at partial 51" purge pitfall avoided);
//   * the §3.5 MAX example (purge matching partials + tombstones so a
//     late value-40 tuple cannot recreate a purged window);
//   * demanded punctuation (§3.4): unblock and emit partial results;
//   * window-aware upstream propagation that respects Example 2's
//     sliding-window pitfall (a tuple feeds several windows).
//
// Output schema: (window_end:timestamp, group attrs..., agg).

#ifndef NSTREAM_OPS_WINDOW_AGGREGATE_H_
#define NSTREAM_OPS_WINDOW_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/aggregate_feedback.h"
#include "core/feedback_policy.h"
#include "core/guards.h"
#include "exec/operator.h"
#include "ops/window.h"

namespace nstream {

enum class AggKind : uint8_t { kCount = 0, kSum, kAvg, kMax, kMin };

const char* AggKindName(AggKind k);

struct WindowAggregateOptions {
  int ts_attr = 0;               // input timestamp attribute
  std::vector<int> group_attrs;  // input grouping attributes
  int agg_attr = -1;             // input value attribute (-1: COUNT(*))
  AggKind kind = AggKind::kAvg;
  WindowSpec window;
  // Declares SUM's inputs non-negative, making it monotone
  // non-decreasing for feedback purposes.
  bool assume_non_negative = false;
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
  // Optional real CPU work per state update (wall-clock benches):
  // calibrates the per-update cost to the reference engine's
  // constant factors (see EXPERIMENTS.md). 0 = raw C++ hash update.
  int work_iters_per_update = 0;
  // Page-at-a-time input (the join's run-bounded grouping reused):
  // runs of tuples between punctuation/EOS boundaries are grouped by
  // (window, group-key) hash — the key vector is built and the state
  // map probed once per distinct group per run instead of per tuple.
  // Off = the per-element walk, the A/B baseline for tests.
  bool page_batched_input = true;
  // Results staged per output page under page-driven executors; the
  // staging page's arena backs the result tuples (zero heap
  // allocations per result). Same knob family as JoinOptions.
  int output_page_size = 256;
};

class WindowAggregate final : public Operator {
 public:
  WindowAggregate(std::string name, WindowAggregateOptions options);
  ~WindowAggregate() override;

  Status InferSchemas() override;
  Status ProcessTuple(int port, const Tuple& tuple) override;
  /// Page-at-a-time path: tuple runs bounded by punctuation/EOS are
  /// admitted (ts/value/guard checks) in one pass, grouped by
  /// (window, group) hash with a stabilized sort, and applied with
  /// one state-map probe per distinct group. Falls back to the
  /// element walk while purge-on-partial feedback patterns are active
  /// (those perform per-update state surgery) or when
  /// options_.page_batched_input is false. Semantically aligned with
  /// ProcessTuple — the randomized equivalence test compares the two.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override;
  Status ProcessPunctuation(int port, const Punctuation& punct) override;
  Status OnAllInputsEos() override;
  /// Results stage only while windows close, and a close flushes them
  /// ahead of its punctuation; the park-time hook covers the rest.
  Status FlushStaged() override;
  Status ProcessFeedback(int out_port,
                         const FeedbackPunctuation& fb) override;

  /// Per-window partial state (all five aggregate kinds share the one
  /// Partial), tombstones, both guard sets, purge-on-partial feedback
  /// patterns, window progress, and counters. Hash-map entries are
  /// written sorted by serialized key bytes so the stream is canonical.
  Status SnapshotState(SnapshotWriter* w) override;
  Status RestoreState(SnapshotReader* r) override;

  AggMonotonicity monotonicity() const;

  // Introspection for tests/benches.
  size_t state_size() const;
  size_t tombstone_count() const;
  const GuardSet& output_guards() const { return output_guards_; }
  const GuardSet& group_guards() const { return group_guards_; }
  uint64_t partials_emitted() const { return partials_emitted_; }
  uint64_t updates_applied() const { return updates_applied_; }
  uint64_t updates_skipped() const { return updates_skipped_; }

 private:
  struct Key;
  struct KeyHash;
  struct KeyEq;
  struct Partial;
  // One admitted (tuple, window) pair of a batched input run.
  struct RunItem {
    uint32_t elem = 0;  // index into the page's element vector
    int64_t wid = 0;
    uint64_t hash = 0;  // (wid, group values) hash; verified on apply
    double v = 0;       // extracted aggregation input
  };

  // Build the output tuple for a state entry (agg from the partial),
  // bump-allocated from `arena` when staging paged output (null =
  // owned fallback, used by feedback matching and demanded partials).
  Tuple MakeOutput(const Key& key, const Partial& partial,
                   TupleArena* arena = nullptr) const;
  // Key-only probe tuple (agg position NULL) for group-guard checks.
  Tuple MakeProbe(const Key& key) const;
  // Allocation-free input-guard check against the raw tuple values.
  bool GroupGuardBlocks(int64_t wid, const Tuple& tuple) const;
  void EmitResult(const Key& key, const Partial& partial);
  // Batched equivalent of ProcessTuple over elems[begin, end).
  Status ProcessTupleRun(std::vector<StreamElement>& elems, size_t begin,
                         size_t end, TimeMs* tick);
  // The keyed state transition for one (tuple, window): tombstone
  // check, cost charge, partial update, purge-on-partial re-check.
  // Shared verbatim by ProcessTuple and the batched path's
  // hash-collision fallback.
  Status UpdateState(const Tuple& tuple, int64_t wid, double v);
  void ApplyPartial(Partial& p, double v);
  // Group hash of (wid, tuple's group attrs); agrees with KeyHash on
  // the Key the same pair would build (equal keys ⇒ equal hash).
  uint64_t HashKeyOf(int64_t wid, const Tuple& t) const;
  bool SameKey(const Key& key, int64_t wid, const Tuple& t) const;
  // Flush staged output results ahead of punctuation/EOS.
  void FlushOutput();
  // Close every window with id <= last_closable; emit + purge.
  void CloseThrough(int64_t last_closable);
  Status HandleAssumed(const PunctPattern& f);
  Status HandleDesired(const FeedbackPunctuation& fb);
  Status HandleDemanded(const FeedbackPunctuation& fb);
  // Map an output-schema pattern to input-schema terms; nullopt when
  // no sound mapping exists.
  std::optional<PunctPattern> MapToInput(const PunctPattern& f) const;

  WindowAggregateOptions options_;
  int num_groups_ = 0;  // == options_.group_attrs.size()
  int agg_out_idx_ = 0;

  std::unique_ptr<
      std::unordered_map<Key, Partial, KeyHash, KeyEq>>
      state_;
  std::unique_ptr<std::unordered_set<Key, KeyHash, KeyEq>> tombstones_;

  // Guards, both expressed over the OUTPUT schema. group_guards_ hold
  // patterns with wildcard agg (evaluated against key probes on the
  // input path); output_guards_ may constrain the aggregate value and
  // are evaluated at emission.
  GuardSet group_guards_;
  GuardSet output_guards_;
  // Patterns from implication-valid assumed feedback; partials are
  // re-checked against these on every update (the MAX ¬[*,≥50] case).
  std::vector<PunctPattern> purge_partial_patterns_;

  // Result staging for page-granular emission (see output_page_size).
  Page out_staged_;
  // Scratch for the batched input's sort-by-hash pass (reused across
  // pages so the steady-state hot path does not allocate).
  std::vector<RunItem> run_scratch_;

  int64_t closed_through_ = INT64_MIN;
  uint64_t work_checksum_ = 0;
  uint64_t partials_emitted_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t updates_skipped_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_WINDOW_AGGREGATE_H_
