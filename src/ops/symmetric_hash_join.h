// SymmetricHashJoin: streaming equi-join with per-input hash tables,
// optional tumbling-window semantics (WID), optional left-outer
// emission at window close, and the full Table 2 feedback
// characterization driven by the SchemaMap/safe-propagation machinery:
//
//   ¬[*,j,*]  → purge both tables, guard both inputs, propagate both
//   ¬[l,*,*]  → purge/guard left, propagate to left only
//   ¬[*,*,r]  → purge/guard right, propagate to right only
//   ¬[l,*,r]  → no safe propagation: output guard only (§4.2)
//
// Two adaptive personalities from the paper are options on the same
// operator:
//   * THRIFTY JOIN (§3.3): when punctuation reveals an *empty* window
//     on the probe input, emit assumed feedback telling the other
//     input's antecedents to skip that window entirely.
//   * IMPATIENT JOIN (§3.4): when data arrives for (window, key) on one
//     input, emit desired feedback asking the other input to
//     prioritize that subset ("I have vehicle data for segment #3 and
//     time period #7").

#ifndef NSTREAM_OPS_SYMMETRIC_HASH_JOIN_H_
#define NSTREAM_OPS_SYMMETRIC_HASH_JOIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "core/schema_map.h"
#include "exec/operator.h"
#include "ops/window.h"

namespace nstream {

/// How the page-at-a-time probe groups a tuple run (see
/// JoinOptions::page_batched_probe).
enum class ProbeGrouping : uint8_t {
  // Stabilized sort by key hash: gathers scattered duplicates so each
  // distinct key touches the tables once, at the price of the sort and
  // scattered element access. Loses to the element walk on Table 2
  // once arenas removed allocation (~0.73x) — kept for high-duplicate
  // runs whose repeats are NOT adjacent, and for the A/B tests.
  kSorted = 0,
  // Sort-free adjacency grouping: a single fused walk in element
  // order that memoizes the probe/insert buckets across CONSECUTIVE
  // equal key hashes, and MOVES each tuple into the table. Bursty
  // streams (sensor readings per segment, per-key batches) skip both
  // hash-table lookups on every repeat; runs with no adjacent
  // repeats still beat the element walk, because the walk's
  // ProcessTuple copies every inserted tuple where this path moves
  // it (~1.1x on Table 2, which has zero adjacent repeats —
  // join.adjacent_probe_* vs join.element_probe_*). Output order
  // matches the element walk exactly (no cross-key reordering).
  kAdjacent,
  // kAdjacent while the observed adjacent-duplicate density says the
  // memoization pays, the plain element walk otherwise; density is
  // re-sampled periodically so a stream that turns bursty is
  // noticed. Measured strictly worse than kAdjacent as a default:
  // the fused walk dominates the element walk even at zero duplicate
  // density (the move-vs-copy insert), so falling back only forfeits
  // that. Kept as an option and for the A/B suites.
  kAdaptive,
};

struct JoinOptions {
  // Equi-join key attribute positions (parallel arrays).
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  // Timestamp attributes (required when window_join).
  int left_ts = -1;
  int right_ts = -1;
  // Tumbling-window join: tuples join only within the same window.
  bool window_join = false;
  WindowSpec window;
  // Left-outer: at window close, unmatched left tuples emit with NULL
  // right attributes (the speed-map plan of Fig. 1b).
  bool left_outer = false;

  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
  // §4.4's no-retraction caveat taken conservatively: never purge on
  // feedback, only guard the output.
  bool conservative_no_retraction = false;

  // THRIFTY JOIN: watch for empty windows on `thrifty_probe_input` and
  // send assumed feedback for them to the other input.
  bool thrifty = false;
  int thrifty_probe_input = 0;
  // IMPATIENT JOIN: when `impatient_data_input` receives data for a
  // (window,key), desire that subset from the other input.
  bool impatient = false;
  int impatient_data_input = 0;

  // Shard-parallel execution (set by MakePartitionedJoin): this
  // instance owns partition `shard_index` of `shard_count`, fed by an
  // Exchange that routes tuples by key-hash prefix. The join logic is
  // unchanged — each shard's tables_[2] hold only its slice, with no
  // locks shared between shards. Thrifty/gate feedback sent by a shard
  // is a claim about its *slice* only; it stays sound because it
  // travels to the Exchange, which exploits it as a per-output-port
  // guard and only relays upstream once every shard has made an
  // equivalent claim. In debug builds, tuples are verified to actually
  // belong to this shard (a mis-routed tuple would silently miss its
  // join partner).
  int shard_index = 0;
  int shard_count = 1;

  // Joined results staged per output page under page-driven executors
  // (one queue lock per page). Same knob family as
  // DataQueueOptions::page_size and ExchangeOptions::stage_page_size.
  int output_page_size = 256;

  // Page-at-a-time probe: ProcessPage handles each run of tuples
  // (between punctuation/EOS boundaries) with a grouped walk chosen
  // by `probe_grouping`, and tuples MOVE from the page into the table
  // instead of copying. Under kSorted the output interleaving across
  // keys may differ from the element-wise walk (the result multiset
  // is identical — join_batched_probe_test enforces it); kAdjacent /
  // kAdaptive preserve element order exactly.
  //
  // History: the original sort-based grouping paid for itself while
  // every result tuple cost a malloc, lost to the element walk
  // (~0.73x) once the arena model landed, and was defaulted off. The
  // sort-free adjacency grouping won batching back — move-inserts
  // plus bucket memoization beat the element walk at every measured
  // duplicate density, including zero — so the default is ON again
  // with kAdjacent (bench_table2_join's sorted/adjacent/element and
  // bursty rows carry the A/B).
  bool page_batched_probe = true;
  ProbeGrouping probe_grouping = ProbeGrouping::kAdjacent;
  // kAdaptive: take the grouped walk while the EWMA of the adjacent-
  // duplicate fraction (admitted run items whose key hash equals the
  // previous item's) stays at or above this; below it, walk runs
  // element-wise and re-sample the density every
  // `adaptive_resample_period` runs.
  double adaptive_min_dup_fraction = 0.05;
  int adaptive_resample_period = 16;

  // Test seam: replaces the (wid, key-subset) hash used for the join
  // tables and feedback dedup sets. Forcing a constant here makes every
  // key collide, which exercises the collision-checked subset-equality
  // probe (hash equality must never be sufficient to join).
  std::function<uint64_t(const Tuple&, int port, int64_t wid)>
      key_hash_override;

  // Adaptive gate (the paper's motivating speed-map scenario, §1 and
  // §3.3 "Adaptive"): left tuples failing the gate do not join — e.g.
  // "sensor speed >= 45 MPH means vehicle data is not needed". When a
  // windowed left tuple fails the gate, the join predicts the
  // condition persists and sends assumed feedback to the RIGHT input
  // covering that key for the next `gate_feedback_horizon` windows, so
  // antecedents (cleaning, aggregation) skip the subset entirely.
  std::function<bool(const Tuple&)> left_gate;
  int gate_feedback_horizon = 0;  // windows ahead; 0 = no feedback
};

class SymmetricHashJoin final : public Operator {
 public:
  SymmetricHashJoin(std::string name, JoinOptions options);

  Status InferSchemas() override;
  Status Open(ExecContext* ctx) override;
  Status ProcessTuple(int port, const Tuple& tuple) override;
  /// Page-at-a-time path: runs of tuples (between punctuation/EOS
  /// boundaries) are probed grouped by key hash — one table lookup per
  /// distinct key per side instead of per tuple — and inserted in
  /// batches, moving each tuple out of the page. Joined results are
  /// staged into an output page (one queue hop per page, not per
  /// result) that fills across input pages; it is flushed when full,
  /// when punctuation is emitted (results never overtake it), at EOS,
  /// and when the executor parks the task (FlushStaged). With
  /// options_.page_batched_probe false this degrades to the default
  /// element walk.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override;
  Status ProcessPunctuation(int port, const Punctuation& punct) override;
  Status OnAllInputsEos() override;
  Status FlushStaged() override;
  Status ProcessFeedback(int out_port,
                         const FeedbackPunctuation& fb) override;

  /// Full join state: both hash tables (entries incl. matched/gated
  /// flags for outer emission), guard sets, window bookkeeping,
  /// feedback dedup sets, counters, and any staged-but-unflushed
  /// output page. Unordered containers are written key-sorted so the
  /// byte stream is canonical.
  Status SnapshotState(SnapshotWriter* w) override;
  Status RestoreState(SnapshotReader* r) override;

  /// Mixes a window id into a key-subset hash (splitmix64 finalizer) —
  /// the production join-key scheme. Public so the hot-path bench
  /// measures exactly what the join uses.
  static uint64_t MixWidHash(uint64_t subset_hash, int64_t wid) {
    uint64_t h = subset_hash;
    h ^= static_cast<uint64_t>(wid) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return h;
  }

  // Introspection.
  size_t table_size(int input) const;
  const GuardSet& input_guards(int input) const {
    return input_guards_[static_cast<size_t>(input)];
  }
  const GuardSet& output_guards() const { return output_guards_; }
  const SchemaMap& schema_map() const { return map_; }
  uint64_t thrifty_feedbacks() const { return thrifty_feedbacks_; }
  uint64_t impatient_feedbacks() const { return impatient_feedbacks_; }
  uint64_t gate_feedbacks() const { return gate_feedbacks_; }
  uint64_t joined_count() const { return joined_count_; }
  /// kAdaptive probe introspection: the current adjacent-duplicate
  /// density estimate (tests assert it tracks the stream's shape).
  double adjacent_dup_ewma() const { return adj_dup_ewma_; }

 private:
  struct Entry {
    Tuple tuple;
    int64_t wid = 0;
    bool matched = false;
    bool gated = false;  // failed the adaptive gate; outer-emits only
  };
  // Keyed by a 64-bit hash of (window id, join-key subset) — no string
  // rendering, no per-probe allocation. Hash collisions are resolved by
  // collision-checked subset equality at probe time (each bucket entry
  // is verified with wid + EqualsSubset before it joins).
  using Table = std::unordered_map<uint64_t, std::vector<Entry>>;

  // One prepared tuple of a batched-probe run (ProcessPage).
  struct RunItem {
    uint32_t elem = 0;  // index into the page's element vector
    int64_t wid = 0;
    uint64_t key = 0;
    bool gated = false;
    bool matched = false;
  };

  uint64_t KeyHash(const Tuple& t, int port, int64_t wid) const;
  int64_t WidOf(const Tuple& t, int port) const;
  /// Batched equivalent of ProcessTuple over elems[begin, end) (all
  /// tuples); dispatches on options_.probe_grouping. Must stay
  /// semantically aligned with ProcessTuple — the randomized
  /// equivalence test compares the paths directly.
  Status ProcessTupleRun(int port, std::vector<StreamElement>& elems,
                         size_t begin, size_t end, TimeMs* tick);
  /// kSorted: stage + sort by key hash, one probe/insert lookup per
  /// distinct key in the run.
  Status ProcessSortedRun(int port, std::vector<StreamElement>& elems,
                          size_t begin, size_t end, TimeMs* tick);
  /// kAdjacent: fused single pass in element order, probe/insert
  /// buckets memoized across consecutive equal key hashes. Also the
  /// kAdaptive sampling pass (it measures density as it walks).
  Status ProcessAdjacentRun(int port, std::vector<StreamElement>& elems,
                            size_t begin, size_t end, TimeMs* tick);
  /// Element-wise walk of a run (kAdaptive's low-density path):
  /// ProcessTuple per element, with the page walk's stats/tick
  /// charges.
  Status ProcessRunElementwise(int port,
                               std::vector<StreamElement>& elems,
                               size_t begin, size_t end, TimeMs* tick);
  /// Columnar-input fast path (kAdjacent grouping only): key hashes
  /// and window ids precompute column-at-a-time over the block's
  /// contiguous columns (type dispatch hoisted per column), then the
  /// adjacency-memoized walk runs over a reused aliased row view.
  Status ProcessColumnarPage(int port, Page&& page, TimeMs* tick);
  /// Arena for result construction: the staging page's arena when
  /// results are paged, null (owned fallback) otherwise.
  TupleArena* OutArena();
  Tuple JoinTuples(const Tuple& left, const Tuple& right,
                   TupleArena* arena) const;
  Tuple OuterTuple(const Tuple& left, TupleArena* arena) const;
  /// Single result-emission seam for every probe/outer path: stages
  /// the pair column-wise (left attrs then right non-keys — or NULLs
  /// when `right` is null) straight into the staged block when the
  /// columnar layout is available and no output guard is active;
  /// otherwise assembles the row tuple and routes through
  /// EmitJoined's guarded row staging.
  void EmitJoinedPair(const Tuple& left, const Tuple* right);
  /// The staged page's columnar block: existing block, or a freshly
  /// begun one on an empty staged page; null when a row page is open,
  /// the columnar layout is off, or arenas are unavailable.
  ColumnarBlock* StagedColumnar();
  void EmitJoined(Tuple out);
  void FlushOutput();
  void PurgeWindowsThrough(int side, int64_t wid, bool emit_outer);
  void MaybeThrifty(int64_t through_wid);
  void MaybeImpatient(const Tuple& t, int port, int64_t wid,
                      uint64_t key);
  void SendGateFeedback(const Tuple& t, int64_t wid, uint64_t key);
  Status HandleAssumed(const FeedbackPunctuation& fb);

  JoinOptions options_;
  SchemaMap map_{2, 0};
  int left_arity_ = 0;
  int right_arity_ = 0;
  std::vector<int> right_nonkey_;  // right attrs appended to output

  // Cached ExecContext::PagedEmissionPreferred() — a per-context
  // constant, looked up once in Open instead of twice (OutArena +
  // EmitJoined) per emitted result.
  bool paged_emission_ = false;

  Table tables_[2];
  GuardSet input_guards_[2];
  GuardSet output_guards_;
  // Joined-result staging for page-granular emission (ProcessPage).
  Page out_staged_;
  // Scratch for the batched probe's sort-by-key pass (reused across
  // pages to keep the hot path allocation-free once warm).
  std::vector<RunItem> run_scratch_;
  // Columnar-input scratch: per-selected-row window ids and key
  // hashes, filled by contiguous column sweeps before the probe walk.
  std::vector<int64_t> wid_scratch_;
  std::vector<uint64_t> hash_scratch_;
  // kAdaptive probe state: EWMA of the adjacent-duplicate fraction
  // observed by grouped runs, and how many element-wise runs have
  // passed since the density was last sampled. Initialized so the
  // very first run samples.
  double adj_dup_ewma_ = 0.0;
  int runs_since_dup_sample_ = 1 << 20;

  // Per-input window bookkeeping (window_join only).
  std::map<int64_t, uint64_t> window_counts_[2];
  int64_t min_seen_wid_[2] = {INT64_MAX, INT64_MAX};
  int64_t watermark_[2] = {INT64_MIN, INT64_MIN};
  int64_t emitted_punct_through_ = INT64_MIN;
  int64_t thrifty_checked_through_ = INT64_MIN;
  // Feedback rate-limit sets, keyed by the same (wid, key) hash as the
  // tables. A hash collision here can only suppress a redundant
  // optimization hint (desired/assumed feedback), never affect join
  // correctness, so hash-only membership is sound.
  std::unordered_set<uint64_t> impatient_requested_;

  std::unordered_set<uint64_t> gate_requested_;
  uint64_t thrifty_feedbacks_ = 0;
  uint64_t impatient_feedbacks_ = 0;
  uint64_t gate_feedbacks_ = 0;
  uint64_t joined_count_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_SYMMETRIC_HASH_JOIN_H_
