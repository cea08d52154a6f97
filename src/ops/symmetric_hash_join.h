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

#include <algorithm>
#include <cstdint>
#include <cstring>
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
  /// key-hash groups in sorted hash order (each row's hash recomputed
  /// from its key), insertion order within a group's window, and
  /// unordered sets key-sorted, so the byte stream is canonical. A
  /// group that spans windows (only key_hash_override makes one)
  /// interleaves its windows by tuple id. Restore rejects a row whose
  /// key does not hash to its group.
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
  /// Bytes held by both inputs' window tables: arena payload (rows,
  /// string and own-tag bytes) plus the hash index and own-tag index.
  size_t state_bytes() const;
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
  // A stored row's name: (chunk ordinal << slot bits) | slot in the
  // table's row arena, in the low 28 bits of a u32. kNoRow, all 28
  // bits set, ends a bucket list; the top 4 bits of a row's link word
  // carry its flags.
  static constexpr uint32_t kNoRow = (uint32_t{1} << 28) - 1;
  static constexpr uint32_t kMatched = uint32_t{1} << 31;
  static constexpr uint32_t kGated = uint32_t{1} << 30;  // failed the gate
  static constexpr uint32_t kLive = uint32_t{1} << 29;   // not purged
  static constexpr uint32_t kOwnTags = uint32_t{1} << 28;

  // One stored input tuple: this 8-byte header, then its slots — the
  // tuple id, the arrival, then one per value — at offsets its window
  // table fixes, at a fixed stride in the table's row arena: no heap
  // allocation, no pointer to it anywhere. A narrow slot holds an
  // int32 offset from its column's value in the table's first row; a
  // wide one holds the 8-byte image: an int64 or timestamp, a double's
  // bits, a bool as 0/1, NULL as 0, or the address of a
  // length-prefixed copy of a string's bytes in the table's byte
  // arena. The value types are the table's; a row whose types differ
  // sets kOwnTags, and its tag bytes sit in the byte arena too.
  // Neither the full (wid, key) hash nor an insertion number is kept: a
  // row's position is its insertion order, and a snapshot recomputes
  // the hash from the key slots.
  struct Row {
    uint32_t fp;    // Fingerprint of the (wid, key) hash
    uint32_t link;  // next row in the bucket (or kNoRow) | flags

    uint32_t next() const { return link & kNoRow; }
    bool matched() const { return (link & kMatched) != 0; }
    bool gated() const { return (link & kGated) != 0; }
    bool live() const { return (link & kLive) != 0; }
    bool own_tags() const { return (link & kOwnTags) != 0; }
  };
  static_assert(sizeof(Row) == 8, "slots follow the 8-byte header");
  /// Widest input a window table stores: a row whose slots are all
  /// wide (id, arrival and every value in 8 bytes) must fit one arena
  /// chunk, whose base already has the row's alignment.
  static_assert(alignof(Row) <= TupleArena::kChunkAlign);
  static constexpr int kMaxArity = static_cast<int>(
      (TupleArena::kChunkBytes - sizeof(Row)) / sizeof(uint64_t) - 2);

  // One input's rows for one window id. Rows sit at a fixed stride in
  // the table's row arena, so a u32 name finds one through its chunk's
  // base; string bytes and own-tag bytes go to a second arena. Both
  // arenas take their 16 KiB chunks from, and give them back to, the
  // process-wide chunk reserve. The first row fixes the layout:
  // the value types, and per slot its offset in the row and its width
  // — 4 bytes for the id, the arrival and every int64 or timestamp
  // value, 8 for the rest. A later row that a narrow slot cannot hold
  // (an offset outside int32, or a value of another type) widens that
  // slot: the table re-encodes its live rows once at the wider stride,
  // in insertion order. The index is a flat array of buckets, at most
  // one row per bucket on average, each heading a list of its rows in
  // insertion order — so the rows of one fingerprint stay in insertion
  // order. Closing the window destroys the table whole — two arena
  // releases, no per-row frees. Feedback purges unlink rows and
  // compact the table once more than half of them are dead.
  class WindowTable {
   public:
    explicit WindowTable(int arity);

    /// The 32 bits of `hash` a table keeps: the top half of its
    /// Fibonacci spread, whose high bits pick the bucket.
    static uint32_t Fingerprint(uint64_t hash) {
      // Fibonacci spread: key_hash_override seams hand in small or
      // patterned hashes, which a plain mask would pile into a few
      // buckets.
      return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32);
    }
    /// First row with fingerprint `fp`, or kNoRow. Its later rows
    /// follow on the `next` links (interleaved with other bucket mates).
    uint32_t Find(uint32_t fp) const;
    Row* row(uint32_t name) const {
      return reinterpret_cast<Row*>(rows_->chunk(name >> slot_bits_) +
                                    (name & slot_mask_) * stride_);
    }
    /// Row `name`'s tuple id.
    int64_t id(uint32_t name) const {
      return static_cast<int64_t>(Load(row(name), slots_[kIdSlot]));
    }
    /// Encodes `t`'s values (string bytes too) into the arenas and
    /// appends the row at the tail of its bucket, widening the slots it
    /// does not fit first. ResourceExhausted once the 28-bit names run
    /// out (about 2^28 rows).
    Status Insert(uint64_t hash, const Tuple& t, bool matched, bool gated) {
      return Append(Fingerprint(hash), t,
                    (matched ? kMatched : 0) | (gated ? kGated : 0));
    }
    /// Decodes row `name` into `out`, a tuple of this table's arity
    /// whose values free nothing, so each value is constructed in place
    /// rather than move-assigned (which would release the old one
    /// first). Strings past the inline cap borrow the byte arena.
    void Decode(uint32_t name, Tuple* out) const;
    /// Unlinks every live row whose decoding (into `scratch`)
    /// satisfies `match`; returns how many. Compacts when dead rows
    /// outnumber live ones.
    template <typename Match>
    size_t Purge(Match&& match, Tuple* scratch);
    /// Calls f(name, Row*) for every row ever inserted, in insertion
    /// order, walking the row chunks; dead rows have live() false.
    template <typename F>
    void ForEachRow(F&& f) const {
      uint32_t left = count_;
      for (size_t c = 0; left > 0; ++c) {
        char* base = rows_->chunk(c);
        const uint32_t n = std::min(left, per_chunk_);
        for (uint32_t s = 0; s < n; ++s) {
          f(static_cast<uint32_t>(c << slot_bits_) | s,
            reinterpret_cast<Row*>(base + s * stride_));
        }
        left -= n;
      }
    }
    size_t live() const { return live_; }
    size_t bytes() const;

   private:
    // Slot k of a row: the tuple id (kIdSlot), the arrival
    // (kArrivalSlot), or value k - kValueSlot.
    static constexpr size_t kIdSlot = 0;
    static constexpr size_t kArrivalSlot = 1;
    static constexpr size_t kValueSlot = 2;
    // Where one slot sits in every row of the table, and how it is
    // stored: `narrow`, an int32 offset from `base`; else 8 bytes.
    struct Slot {
      int64_t base;
      uint16_t at;      // byte offset from the row's start
      ValueType type;   // the table's type for a value slot
      bool narrow;
    };
    // Where an own-tags row's tag bytes are, by row name.
    struct OwnTags {
      uint32_t name;
      const ValueType* tags;
    };

    size_t BucketOf(uint32_t fp) const {
      return static_cast<size_t>(uint64_t{fp} >> shift_);
    }
    static uint64_t Load(const Row* r, const Slot& s) {
      const char* p = reinterpret_cast<const char*>(r) + s.at;
      if (s.narrow) {
        int32_t off = 0;
        std::memcpy(&off, p, sizeof(off));
        // The sum is the stored value, which an int64 holds; unsigned
        // arithmetic makes its wraparound defined.
        return static_cast<uint64_t>(s.base) +
               static_cast<uint64_t>(int64_t{off});
      }
      uint64_t payload = 0;
      std::memcpy(&payload, p, sizeof(payload));
      return payload;
    }
    /// Writes `t`'s slots into `row` and sets `*own_tags` if its types
    /// differ from the table's. A narrow slot that cannot hold its value
    /// stays unwritten and is marked wide in `*wider`, a copy of the
    /// layout made at the first such slot.
    void EncodeSlots(const Tuple& t, char* row, bool* own_tags,
                     std::vector<Slot>* wider);
    /// Fixes the slots' offsets and widths, the stride and the naming.
    void SetLayout(std::vector<Slot> slots);
    Status Append(uint32_t fp, const Tuple& t, uint32_t flags);
    uint64_t Encode(const Value& v);
    void Link(uint32_t name, Row* r);
    void Rehash(size_t buckets);
    /// Re-encodes the live rows, in insertion order with their flags,
    /// into a fresh table laid out as `slots`. Fails only when the
    /// fresh table runs out of names; this one is then unchanged.
    Status Compact(std::vector<Slot> slots, Tuple* scratch);

    int arity_;
    uint32_t stride_ = 0;     // 8 + the slots' widths
    uint32_t per_chunk_ = 0;  // rows per row-arena chunk
    uint32_t slot_bits_ = 0;  // name bits for the slot within a chunk
    uint32_t slot_mask_ = 0;
    std::unique_ptr<TupleArena> rows_;   // rows only, at stride_
    std::unique_ptr<TupleArena> bytes_;  // string bytes, own tags
    std::vector<Slot> slots_;            // empty until the first row
    std::vector<OwnTags> own_tags_;      // in name order
    std::vector<uint32_t> heads_;  // per bucket: first row, or kNoRow
    std::vector<uint32_t> tails_;  // per bucket: last row
    int shift_ = 32;               // bucket = fp >> shift_
    uint32_t count_ = 0;           // rows ever inserted
    uint32_t next_name_ = 0;       // the next row's name
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
    uint32_t fp = 0;  // WindowTable::Fingerprint(key)
    uint32_t head = kNoRow;
  };

  uint64_t KeyHash(const Tuple& t, int port, int64_t wid) const;
  int64_t WidOf(const Tuple& t, int port) const;
  /// Input guards, the shard-routing tripwire and the straggler check
  /// every walk applies first; false drops the tuple.
  bool Admit(int port, const Tuple& tuple, int64_t wid);
  /// The core of every walk: gate, probe the other input's rows for
  /// (wid, key) and emit each true match, then store the tuple —
  /// unless the other input has closed its window, when a left-outer
  /// join emits an unmatched left tuple's outer row instead.
  Status ProbeAndStore(int port, const Tuple& tuple, int64_t wid,
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
  /// Single result-emission seam for every probe/outer path: stages
  /// the pair column-wise (left attrs then right non-keys — or NULLs
  /// when `right` is null) into the staged block, where the output
  /// guards test it in place.
  void EmitJoinedPair(const Tuple& left, const Tuple* right);
  /// The staged page's columnar block: the existing one, or a fresh
  /// one after flushing a staged page of rows.
  ColumnarBlock* StagedColumnar();
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
  // Per input, the tuple its stored rows decode into.
  Tuple row_scratch_[2];

  // Per input, one table per open window id (non-windowed joins only
  // ever have window 0). Punctuation erases a prefix of the map.
  std::map<int64_t, WindowTable> tables_[2];
  GuardSet input_guards_[2];
  GuardSet output_guards_;
  // Joined-result staging for page-granular emission (ProcessPage).
  Page out_staged_;
  // Arena bytes of out_staged_ once its block was begun: what the
  // block's own arrays took, before any row's string bytes.
  size_t staged_block_bytes_ = 0;
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
