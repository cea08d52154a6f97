// SymmetricHashJoin: streaming equi-join with per-input window tables,
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
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "core/schema_map.h"
#include "exec/operator.h"
#include "ops/window.h"
#include "types/tuple_arena.h"

namespace nstream {

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
  // unchanged — each shard's window tables hold only its slice, with
  // no locks shared between shards. Thrifty/gate feedback sent by a shard
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

  // Page-at-a-time probe: ProcessPage walks each run of tuples
  // (between punctuation/EOS boundaries) in element order, memoizing
  // the other input's table lookup across consecutive equal (wid, key)
  // hashes; columnar input additionally precomputes window ids and
  // key hashes in column sweeps. Off, every tuple takes ProcessTuple
  // — the element walk the equivalence suites compare against. Both
  // walks emit in the same order.
  bool page_batched_probe = true;

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
  Status ProcessTuple(int port, const Tuple& tuple) override;
  /// Page-at-a-time path: each run of tuples (between
  /// punctuation/EOS boundaries) is walked in element order with the
  /// other input's table lookup memoized across consecutive equal
  /// (wid, key) hashes; columnar pages precompute window ids and key
  /// hashes in column sweeps first. Joined results are staged into an
  /// output page (one queue hop per page, not per result) that fills
  /// across input pages; it is flushed when full, when punctuation is
  /// emitted (results never overtake it), at EOS, and when the
  /// executor parks the task (FlushStaged). With
  /// options_.page_batched_probe false this degrades to the default
  /// element walk.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override;
  Status ProcessPunctuation(int port, const Punctuation& punct) override;
  Status OnAllInputsEos() override;
  Status FlushStaged() override;
  Status ProcessFeedback(int out_port,
                         const FeedbackPunctuation& fb) override;

  /// Full join state: every stored row (values, id, arrival, wid and
  /// the matched/gated flags for outer emission), guard sets, window
  /// bookkeeping, feedback dedup sets, counters, and any
  /// staged-but-unflushed output page. Rows are written per input as
  /// key-hash groups in sorted hash order, insertion order within a
  /// group, and unordered sets key-sorted, so the byte stream is
  /// canonical.
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
  /// Bytes held by both inputs' window tables: arena payload (rows and
  /// string bytes) plus hash-index and row-pointer arrays.
  size_t state_bytes() const;
  /// Spare chunks kept for `input`'s next windows (not in state_bytes).
  const ChunkList& table_chunks(int input) const {
    return table_chunks_[static_cast<size_t>(input)];
  }
  const GuardSet& input_guards(int input) const {
    return input_guards_[static_cast<size_t>(input)];
  }
  const GuardSet& output_guards() const { return output_guards_; }
  const SchemaMap& schema_map() const { return map_; }
  uint64_t thrifty_feedbacks() const { return thrifty_feedbacks_; }
  uint64_t impatient_feedbacks() const { return impatient_feedbacks_; }
  uint64_t gate_feedbacks() const { return gate_feedbacks_; }
  uint64_t joined_count() const { return joined_count_; }

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  // One stored input tuple: this header, then its values inline in the
  // window table's arena (non-inline string bytes too) — 40 bytes plus
  // 16 per value, and no heap allocation.
  struct Row {
    uint64_t hash;     // (wid, key) hash
    uint64_t seq;      // join-wide insertion order (snapshot merge)
    int64_t id;
    TimeMs arrival;
    uint32_t next;     // next row in the same bucket, kNoRow at the tail
    bool matched;
    bool gated;        // failed the adaptive gate; outer-emits only
    bool live;         // false once a feedback purge unlinked it
    const Value* values() const {
      return reinterpret_cast<const Value*>(this + 1);
    }
    Value* values() { return reinterpret_cast<Value*>(this + 1); }
  };
  static_assert(sizeof(Row) == 40 && sizeof(Row) % alignof(Value) == 0,
                "values follow the 40-byte header inline");

  // One input's rows for one window id. Rows and their string bytes
  // come from the table's own arena, whose 16 KiB chunks come from
  // and go back to the input's ChunkList (table_chunks_). The index
  // is a flat array of buckets, at most one row per bucket on average,
  // each heading a list of its rows in insertion order — so the rows
  // of one (wid, key) hash, filtered by `hash`, stay in insertion
  // order. Closing the window destroys the table whole — one arena
  // release, no per-row frees. Feedback purges unlink rows and compact
  // the table once more than half of them are dead.
  class WindowTable {
   public:
    WindowTable(int arity, ChunkList* chunks);

    /// First row with this hash, or kNoRow. Its later rows follow on
    /// the `next` links (interleaved with other hashes of the bucket).
    uint32_t Find(uint64_t hash) const;
    Row* row(uint32_t i) const { return rows_[i]; }
    /// Copies `t`'s values into the arena and appends the row at the
    /// tail of its bucket.
    void Insert(uint64_t hash, uint64_t seq, const Tuple& t,
                bool matched, bool gated);
    /// Unlinks every live row whose view satisfies `match`; returns
    /// how many. Compacts when dead rows outnumber live ones.
    template <typename Match>
    size_t Purge(Match&& match);
    /// Read-only tuple over a row's values (borrows this arena).
    Tuple View(const Row* r) const {
      return Tuple::View(*arena_, r->values(),
                         static_cast<uint32_t>(arity_), r->id,
                         r->arrival);
    }
    /// Every row ever inserted, in insertion order; dead rows have
    /// live == false.
    const std::vector<Row*>& rows() const { return rows_; }
    size_t live() const { return live_; }
    size_t bytes() const;

   private:
    size_t BucketOf(uint64_t hash) const {
      // Fibonacci spread: key_hash_override seams hand in small or
      // patterned hashes, which a plain mask would pile into a few
      // buckets.
      return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    void Link(uint32_t idx);
    void Rehash(size_t buckets);
    void Compact();

    int arity_;
    ChunkList* chunks_;
    std::unique_ptr<TupleArena> arena_;
    std::vector<Row*> rows_;
    std::vector<uint32_t> heads_;  // per bucket: first row, or kNoRow
    std::vector<uint32_t> tails_;  // per bucket: last row
    int shift_ = 64;               // bucket = (hash * golden) >> shift_
    size_t live_ = 0;
  };

  // The page walks' memo: the window tables of the last wid and the
  // other input's first row for the last (wid, key). Valid within one
  // run — probing never mutates the other input's tables, and only
  // punctuation or feedback (run boundaries) drops rows.
  struct ProbeMemo {
    bool have_wid = false;
    int64_t wid = 0;
    WindowTable* probe = nullptr;  // other input's table, or null
    WindowTable* own = nullptr;    // resolved at the first insert
    bool have_key = false;
    uint64_t key = 0;
    uint32_t head = kNoRow;
  };

  uint64_t KeyHash(const Tuple& t, int port, int64_t wid) const;
  int64_t WidOf(const Tuple& t, int port) const;
  /// Input guards, the shard-routing tripwire and the straggler check
  /// every walk applies first; false drops the tuple.
  bool Admit(int port, const Tuple& tuple, int64_t wid);
  /// The core of every walk: gate, probe the other input's rows for
  /// (wid, key) and emit each true match, then store the tuple.
  void ProbeAndStore(int port, const Tuple& tuple, int64_t wid,
                     uint64_t key, ProbeMemo* memo);
  /// Batched equivalent of ProcessTuple over elems[begin, end) (all
  /// tuples): one walk in element order with a shared ProbeMemo.
  Status ProcessTupleRun(int port, const std::vector<StreamElement>& elems,
                         size_t begin, size_t end, TimeMs* tick);
  /// Columnar-input fast path: key hashes and window ids precompute
  /// column-at-a-time over the block's contiguous columns (type
  /// dispatch hoisted per column), then the memoized walk runs over a
  /// reused aliased row view.
  Status ProcessColumnarPage(int port, Page&& page, TimeMs* tick);
  WindowTable* FindTable(int side, int64_t wid);
  WindowTable& TableFor(int side, int64_t wid);
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
  /// Left-outer rows of one window: its unmatched live rows, NULL
  /// right attributes, in tuple-id order.
  void EmitOuterRows(const WindowTable& table);
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

  // Per input, the chunks its closed windows left for its next ones.
  // Declared before tables_, so the tables return their chunks here
  // before the lists free them.
  ChunkList table_chunks_[2];
  // Per input, one table per open window id (non-windowed joins only
  // ever have window 0). Punctuation erases a prefix of the map.
  std::map<int64_t, WindowTable> tables_[2];
  uint64_t next_seq_ = 0;
  GuardSet input_guards_[2];
  GuardSet output_guards_;
  // Joined-result staging for page-granular emission (ProcessPage).
  Page out_staged_;
  // Columnar-input scratch: per-selected-row window ids and key
  // hashes, filled by contiguous column sweeps before the probe walk.
  std::vector<int64_t> wid_scratch_;
  std::vector<uint64_t> hash_scratch_;

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
