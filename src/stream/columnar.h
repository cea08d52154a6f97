// ColumnarBlock: the SoA (structure-of-arrays) page layout. A row page
// stores a vector of StreamElements, each a variant holding a Tuple
// whose values live in a per-tuple span; a columnar page stores one
// contiguous Value array PER ATTRIBUTE plus parallel id/arrival
// arrays, all bump-allocated from the owning Page's TupleArena. Result
// construction becomes one slot store per attribute — no per-tuple
// span setup, no StreamElement variant — and filtering becomes a
// SELECTION VECTOR edit instead of an element compaction.
//
// Rules (see docs/ARCHITECTURE.md "Page layouts"):
//   * It is the one layout in which an operator stages output (the
//     join, Project and WindowAggregate results, decoded ingest
//     batches). Row pages remain for sources, punctuation and EOS, and
//     per-tuple emission into a queue's open page.
//   * Columnar pages hold tuples only. Punctuation/EOS keep their
//     dedicated paths — a punctuation flushes its page, so it could
//     only ever trail the rows anyway.
//   * The column spans live in the page arena, which every page has.
//     A block may have zero columns (a projection that keeps none).
//   * Every value stored in a block is trivially destructible (string
//     bytes are inlined or borrowed from the block's arena — Set()
//     enforces the same re-homing rules as Tuple::Append), so the
//     page's wholesale arena free stays sound.
//   * Consumers that need rows (sinks, per-element walks) materialize
//     via Page::EnsureRowLayout or gather single rows; gathering
//     within the page is a Value::Alias field copy per attribute,
//     never a byte clone. The join reads rows through FillRow's
//     scratch view and copies what it stores into its own arenas.

#ifndef NSTREAM_STREAM_COLUMNAR_H_
#define NSTREAM_STREAM_COLUMNAR_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "types/tuple.h"
#include "types/tuple_arena.h"
#include "types/value.h"

namespace nstream {

/// Per-column value-class summary, maintained on every store. Lets
/// consumers hoist type dispatch out of row loops: one class check
/// per column, then a tight unchecked_int64/unchecked_double loop the
/// compiler can vectorize (compiled-pattern purges, join key hashing).
enum class ColumnClass : uint8_t {
  kEmpty = 0,  // no values stored yet
  kInt64,      // every value is int64-imaged (kInt64/kTimestamp)
  kDouble,     // every value is kDouble
  kMixed,      // anything else (strings, bools, nulls, or a mix)
};

class ColumnarBlock {
 public:
  ColumnarBlock() = default;
  ColumnarBlock(const ColumnarBlock&) = delete;
  ColumnarBlock& operator=(const ColumnarBlock&) = delete;

  /// Allocate the column/id/arrival arrays from `arena` (which must
  /// outlive the block — it is the owning page's arena).
  void Init(TupleArena* arena, uint32_t cols, uint32_t capacity) {
    assert(arena != nullptr && capacity > 0);
    arena_ = arena;
    cols_ = cols;
    capacity_ = capacity;
    rows_ = 0;
    sel_ = nullptr;
    sel_count_ = 0;
    col_data_ = arena->AllocateSpan<Value*>(cols);
    col_class_ = arena->AllocateSpan<ColumnClass>(cols);
    for (uint32_t c = 0; c < cols; ++c) {
      col_data_[c] = arena->AllocateSpan<Value>(capacity);
      col_class_[c] = ColumnClass::kEmpty;
    }
    ids_ = arena->AllocateSpan<int64_t>(capacity);
    arrivals_ = arena->AllocateSpan<TimeMs>(capacity);
  }

  uint32_t cols() const { return cols_; }
  uint32_t capacity() const { return capacity_; }
  /// Rows physically appended (ignores the selection vector).
  uint32_t rows() const { return rows_; }
  bool full() const { return rows_ == capacity_; }
  /// Rows currently SELECTED — what consumers see as the page size.
  uint32_t size() const { return sel_ != nullptr ? sel_count_ : rows_; }
  /// Physical row index of the i-th selected row.
  uint32_t row_at(uint32_t i) const {
    return sel_ != nullptr ? sel_[i] : i;
  }

  /// Open a new row; every column must then be stored via Set(). The
  /// caller checks full() (or flushes) before calling.
  uint32_t AddRow(int64_t id, TimeMs arrival) {
    assert(rows_ < capacity_);
    const uint32_t r = rows_++;
    ids_[r] = id;
    arrivals_[r] = arrival;
#ifndef NDEBUG
    // Debug builds pre-null the slots so a column a buggy emitter
    // skipped reads as NULL instead of uninitialized bytes.
    for (uint32_t c = 0; c < cols_; ++c) new (col_data_[c] + r) Value();
#endif
    return r;
  }

  /// Drop the row AddRow just opened (an output guard blocked it).
  /// String bytes its Set calls copied stay in the arena as dead
  /// payload, and the column summaries keep what they merged: they
  /// only ever widen, so they stay true of the remaining rows.
  void PopRow() {
    assert(rows_ > 0 && sel_ == nullptr);
    --rows_;
  }

  /// Store one attribute of a row — the same re-homing rules as
  /// Tuple::Append(const Value&): string bytes go into (or stay
  /// borrowed from) the block's arena, scalars and inline strings are
  /// flat field copies. This is the entire per-value cost of columnar
  /// result construction.
  void Set(uint32_t col, uint32_t row, const Value& v) {
    assert(col < cols_ && row < rows_);
    Value* slot = col_data_[col] + row;
    if (v.type() == ValueType::kString && !v.is_inline_string()) {
      std::string_view sv = v.string_view();
      if (v.is_borrowed_string() && arena_->Owns(sv.data())) {
        new (slot) Value(Value::BorrowedString(sv));
      } else {
        new (slot) Value(Value::StringIn(arena_, sv));
      }
    } else {
      new (slot) Value(Value::Alias(v));
    }
    MergeClass(col, *slot);
  }

  /// Contiguous column access (read side of the hoisted-dispatch
  /// loops). Index by PHYSICAL row (row_at).
  const Value* column(uint32_t c) const {
    assert(c < cols_);
    return col_data_[c];
  }
  ColumnClass column_class(uint32_t c) const {
    assert(c < cols_);
    return col_class_[c];
  }
  const int64_t* ids() const { return ids_; }
  const TimeMs* arrivals() const { return arrivals_; }
  /// Mutable engine-metadata arrays (executors stamp arrival times on
  /// emission, exactly as they stamp row tuples; the ingest decoder
  /// stamps ids after a row's values, matching the wire field order).
  TimeMs* mutable_arrivals() { return arrivals_; }
  int64_t* mutable_ids() { return ids_; }
  TupleArena* arena() const { return arena_; }

  /// Selection-vector filter: keep exactly the selected rows for
  /// which `keep_row(physical_row)` returns true. This is an index
  /// edit — surviving rows are never moved or copied, which is the
  /// whole point versus row-page compaction.
  template <typename Fn>
  void KeepIf(Fn&& keep_row) {
    const uint32_t n = size();
    uint32_t* out = sel_;
    if (out == nullptr) out = arena_->AllocateSpan<uint32_t>(rows_);
    uint32_t kept = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t r = sel_ != nullptr ? sel_[i] : i;
      if (keep_row(r)) out[kept++] = r;
    }
    sel_ = out;
    sel_count_ = kept;
  }

  /// Stable-partition the selection: matching rows ahead of
  /// non-matching ones, relative order preserved on both sides (the
  /// queue's PromoteMatching over columnar pages). Returns the number
  /// of rows that jumped ahead of a non-matching row.
  template <typename Fn>
  int PartitionSelection(Fn&& match) {
    EnsureSelection();
    const uint32_t n = sel_count_;
    uint32_t* tmp = arena_->AllocateSpan<uint32_t>(n);
    uint32_t m = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (match(sel_[i])) tmp[m++] = sel_[i];
    }
    if (m == 0 || m == n) return 0;
    uint32_t k = m;
    for (uint32_t i = 0; i < n; ++i) {
      if (!match(sel_[i])) tmp[k++] = sel_[i];
    }
    sel_ = tmp;
    return static_cast<int>(m);
  }

  /// In-place projection: re-point the column array at the kept
  /// attribute positions (O(output arity); rows, ids, arrivals and
  /// the selection carry over untouched). `keep` lists input columns
  /// in output order; duplicates are fine (columns are shared).
  void ProjectColumns(const std::vector<int>& keep) {
    Value** nd = arena_->AllocateSpan<Value*>(keep.size());
    ColumnClass* nc = arena_->AllocateSpan<ColumnClass>(keep.size());
    for (size_t j = 0; j < keep.size(); ++j) {
      assert(keep[j] >= 0 && static_cast<uint32_t>(keep[j]) < cols_);
      nd[j] = col_data_[keep[j]];
      nc[j] = col_class_[keep[j]];
    }
    col_data_ = nd;
    col_class_ = nc;
    cols_ = static_cast<uint32_t>(keep.size());
  }

  /// Reusable row view for per-row predicates (FilterPageInPlace):
  /// one arena tuple whose slots FillRow overwrites with Value
  /// aliases — per row the cost is cols field copies, no clones.
  Tuple MakeRowScratch() const {
    Tuple t(arena_, cols_);
    for (uint32_t c = 0; c < cols_; ++c) t.Append(Value::Null());
    return t;
  }
  void FillRow(uint32_t row, Tuple* scratch) const {
    assert(row < rows_ && scratch->size() == static_cast<int>(cols_));
    for (uint32_t c = 0; c < cols_; ++c) {
      scratch->mutable_value(static_cast<int>(c)) =
          Value::Alias(col_data_[c][row]);
    }
    scratch->set_id(ids_[row]);
    scratch->set_arrival_ms(arrivals_[row]);
  }

  /// Gather a row into an arena tuple backed by the block's own arena
  /// (value aliases — free). Page-lifetime, like any arena tuple.
  Tuple GatherRowAliased(uint32_t row) const {
    assert(row < rows_);
    Tuple t(arena_, cols_);
    for (uint32_t c = 0; c < cols_; ++c) {
      t.AppendAlias(col_data_[c][row]);
    }
    t.set_id(ids_[row]);
    t.set_arrival_ms(arrivals_[row]);
    return t;
  }

  /// Debug check behind the wholesale page free: the block must be
  /// backed by the page's own arena and hold no owning values.
  bool ArenaInvariantHolds(const TupleArena* page_arena) const {
    if (arena_ != page_arena) return false;
    for (uint32_t c = 0; c < cols_; ++c) {
      for (uint32_t r = 0; r < rows_; ++r) {
        if (!col_data_[c][r].is_trivially_destructible_rep()) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  void EnsureSelection() {
    if (sel_ != nullptr) return;
    sel_ = arena_->AllocateSpan<uint32_t>(rows_);
    for (uint32_t i = 0; i < rows_; ++i) sel_[i] = i;
    sel_count_ = rows_;
  }

  void MergeClass(uint32_t col, const Value& v) {
    const ColumnClass cls = v.is_int64_rep() ? ColumnClass::kInt64
                            : v.type() == ValueType::kDouble
                                ? ColumnClass::kDouble
                                : ColumnClass::kMixed;
    if (col_class_[col] == ColumnClass::kEmpty) {
      col_class_[col] = cls;
    } else if (col_class_[col] != cls) {
      col_class_[col] = ColumnClass::kMixed;
    }
  }

  TupleArena* arena_ = nullptr;
  Value** col_data_ = nullptr;       // [cols_] column base pointers
  ColumnClass* col_class_ = nullptr; // [cols_] per-column summaries
  int64_t* ids_ = nullptr;           // [capacity_] engine tuple ids
  TimeMs* arrivals_ = nullptr;       // [capacity_] arrival stamps
  uint32_t* sel_ = nullptr;          // selection vector; null = all
  uint32_t sel_count_ = 0;
  uint32_t cols_ = 0;
  uint32_t rows_ = 0;
  uint32_t capacity_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_STREAM_COLUMNAR_H_
