// Page: a batch of stream elements. NiagaraST's inter-operator queues
// consist of pages of tuples; batching amortizes queue synchronization
// and context switches. A page is flushed to the queue when it fills OR
// when a punctuation is written to it (so slow streams don't strand
// punctuation behind a partially-filled page) — §5, "Inter-Operator
// Communication".
//
// A page is also the unit of tuple-memory ownership: it lazily owns a
// TupleArena from which result tuples bump-allocate their value spans
// and string bytes. The arena travels with the page through every
// queue hop (Page is move-only) and is freed wholesale when the page
// is destroyed — zero per-tuple frees on the consumption side.
// Invariant: every arena-backed tuple stored in a page references
// that page's own arena (AddTuple re-homes foreign-arena tuples);
// owned-mode tuples may live in any page.
//
// A page has one of two layouts:
//   * ROW (default) — a vector of StreamElements (tuples, punctuation,
//     EOS markers) in arrival order. Sources, punctuation and EOS, and
//     per-tuple emission into a queue's open page use it.
//   * COLUMNAR — a ColumnarBlock of per-attribute Value arrays in the
//     page arena, tuples only (punctuation flushes its page, so it
//     could only ever trail the rows; emitters send it on the next,
//     row, page). Every operator that stages output stages it here.
//     Consumers that need row tuples call EnsureRowLayout() first;
//     layout-aware consumers branch on is_columnar() and read the
//     block in place.

#ifndef NSTREAM_STREAM_PAGE_H_
#define NSTREAM_STREAM_PAGE_H_

#include <cassert>
#include <memory>
#include <vector>

#include "stream/columnar.h"
#include "stream/element.h"
#include "types/tuple_arena.h"

namespace nstream {

/// Why a page left the producer and entered the queue.
enum class FlushReason : uint8_t {
  kPageFull = 0,
  kPunctuation,   // punctuation written — flushed immediately
  kEndOfStream,
  kExplicit,      // producer-forced flush (e.g. operator Close)
};

class Page {
 public:
  Page() = default;

  // Move-only: a page's elements travel producer → queue → consumer by
  // transfer of ownership, never by copy. Keeps the per-tuple cost of
  // the data path at one move per hop, and gives the arena exactly one
  // owner at all times.
  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;
  Page(Page&&) = default;
  Page& operator=(Page&&) = default;

  void Add(StreamElement e) {
    assert(block_ == nullptr && "columnar pages take rows via the block");
    assert(ElementArenaInvariantHolds(e));
    elems_.push_back(std::move(e));
  }
  /// Add a tuple, re-homing it into this page's arena if it is backed
  /// by a different one. Owned tuples are moved in untouched. This is
  /// the one safe way to migrate a tuple between pages without a deep
  /// copy.
  void AddTuple(Tuple t) {
    if (t.arena_backed() && t.arena() != arena_.get()) {
      t.Rehome(arena());
    }
    elems_.push_back(StreamElement::OfTuple(std::move(t)));
  }
  /// Pre-size the element vector (producers reserve page_size up
  /// front so filling a page never reallocates mid-stream).
  void Reserve(size_t n) { elems_.reserve(n); }

  /// This page's tuple arena, lazily created. Result tuples built for
  /// this page should pass this to Tuple's arena constructor /
  /// Value::StringIn.
  TupleArena* arena() {
    if (arena_ == nullptr) arena_ = std::make_unique<TupleArena>();
    return arena_.get();
  }
  /// The arena if one was ever created (no lazy creation); may be
  /// null. Consumers use this for introspection/asserts only.
  const TupleArena* arena_if_created() const { return arena_.get(); }

  bool empty() const {
    return block_ != nullptr ? block_->size() == 0 : elems_.empty();
  }
  size_t size() const {
    return block_ != nullptr ? block_->size() : elems_.size();
  }
  const std::vector<StreamElement>& elements() const {
    assert(block_ == nullptr && "call EnsureRowLayout() first");
    return elems_;
  }
  std::vector<StreamElement>& mutable_elements() {
    assert(block_ == nullptr && "call EnsureRowLayout() first");
    return elems_;
  }

  /// Switch this (empty) page to the columnar layout, allocating a
  /// block of `cols` columns × `capacity` rows from the page arena.
  ColumnarBlock* BeginColumnar(uint32_t cols, uint32_t capacity) {
    assert(elems_.empty() && block_ == nullptr);
    block_ = std::make_unique<ColumnarBlock>();
    block_->Init(arena(), cols, capacity);
    return block_.get();
  }
  bool is_columnar() const { return block_ != nullptr; }
  ColumnarBlock* columnar() { return block_.get(); }
  const ColumnarBlock* columnar() const { return block_.get(); }

  /// Columnar → row materialization at boundaries that require row
  /// tuples (per-element walks, sinks, non-columnar operators). Each
  /// selected row gathers into an arena tuple of Value aliases — one
  /// flat 16-byte copy per attribute, no string clones, same arena,
  /// so the page invariant holds by construction. No-op on row pages.
  void EnsureRowLayout() {
    if (block_ == nullptr) return;
    std::unique_ptr<ColumnarBlock> b = std::move(block_);
    const uint32_t n = b->size();
    elems_.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      elems_.push_back(
          StreamElement::OfTuple(b->GatherRowAliased(b->row_at(i))));
    }
    // The block's arrays stay behind in the arena (freed with the
    // page); the block header itself dies here.
  }

  FlushReason flush_reason() const { return flush_reason_; }
  void set_flush_reason(FlushReason r) { flush_reason_ = r; }

  /// Debug check of the page/arena ownership invariant for one
  /// element (tuples only; punctuation carries no tuple memory).
  bool ElementArenaInvariantHolds(const StreamElement& e) const {
    return !e.is_tuple() || e.tuple().ArenaInvariantHolds(arena_.get());
  }

 private:
  // Declared before elems_/block_ so elements (whose tuples reference
  // the arena) and the block (whose arrays live in the arena) are
  // destroyed first; arena-mode tuple destructors are no-ops, but the
  // order keeps even pathological cases sound.
  std::unique_ptr<TupleArena> arena_;
  std::vector<StreamElement> elems_;
  std::unique_ptr<ColumnarBlock> block_;
  FlushReason flush_reason_ = FlushReason::kExplicit;
};

}  // namespace nstream

#endif  // NSTREAM_STREAM_PAGE_H_
