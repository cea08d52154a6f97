// TupleArena: a chunked bump allocator that backs tuple payloads with
// page-granular lifetime. The paper's inter-operator communication
// (§5) moves tuples in pages; making the page the unit of memory
// ownership lets the engine allocate a result tuple's value span (and
// its string bytes) with a pointer bump and free the whole page's
// worth of payloads wholesale when the page is consumed — instead of
// one malloc per tuple plus one per string value.
//
// Ownership rules (see docs/ARCHITECTURE.md "Memory model"):
//   * An arena is owned by exactly one Page (or one operator-local
//     staging structure) and moves with it through the data path.
//   * Values stored in arena-backed tuples must be trivially
//     destructible — arena-resident string Values BORROW arena bytes
//     (Value's StringRef alternative) instead of owning a
//     std::string. Tuple's arena-aware append enforces this.
//   * Anything that outlives its page must be promoted to owned
//     storage (Tuple::Promote), re-homed into the destination page's
//     arena (Tuple::Rehome), or copied into a longer-lived arena (a
//     join's per-window tables, which free a whole window at once).
//     Plain Tuple/Value copies always deep-copy into owned storage,
//     so accidental escapes are safe.
//
// Chunk sources: an arena takes its 16 KiB chunks from its ChunkList,
// if it was given one, then from the process-wide pool, then from the
// heap, and returns them to the list, else to the pool. Both sources
// are worker-neutral: glibc hands a freed block back to the malloc
// arena of the thread that allocated it, so memory a window freed on
// one worker would sit idle while the next window, filled on another
// worker, allocated afresh from that worker's arena.

#ifndef NSTREAM_TYPES_TUPLE_ARENA_H_
#define NSTREAM_TYPES_TUPLE_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

namespace nstream {

/// Spare chunks for the arenas of one owner: a join input's window
/// tables. The owner's closed windows refill its next ones, whichever
/// worker runs them, and the owner keeps the list bounded with TrimTo.
/// Not thread-safe: it moves between workers with its owner's task.
/// Destroying it frees its chunks, so none outlives the owner.
class ChunkList {
 public:
  ChunkList() = default;
  ChunkList(const ChunkList&) = delete;
  ChunkList& operator=(const ChunkList&) = delete;

  /// Chunks waiting for the owner's next arenas.
  size_t size() const { return chunks_.size(); }
  /// Chunks the owner's arenas had to take from the process-wide pool
  /// or the heap because the list was empty.
  uint64_t misses() const { return misses_; }
  /// Keep at most `n` chunks and free the rest. Freed, not parked in
  /// the process-wide pool: on bench/e2e's join_agg, a pool kept full
  /// of join chunks read ~1 MiB more peak RSS than freeing them.
  void TrimTo(size_t n) {
    if (chunks_.size() > n) chunks_.resize(n);
  }

 private:
  friend class TupleArena;
  std::vector<std::unique_ptr<char[]>> chunks_;
  uint64_t misses_ = 0;
};

class TupleArena {
 public:
  // Fixed chunk size. 16 KiB holds a 128-tuple page of small tuples
  // in one chunk, so the steady-state cost is a handful of chunk
  // grabs per page, not per tuple. Chunks are RECYCLED through the
  // arena's ChunkList, if any, or a process-wide pool (see
  // tuple_arena.cc): a consumed page returns its chunks, the next
  // staged page reuses the same warm memory — without the pool every
  // page generation would touch fresh cold bytes and the first-touch
  // faults would eat the allocation win.
  // Requests larger than a chunk get a dedicated (non-pooled) block.
  static constexpr size_t kChunkBytes = 16 * 1024;

  TupleArena() = default;
  /// Chunks come from `home` first and go back to it; `home` must
  /// outlive the arena.
  explicit TupleArena(ChunkList* home) : home_(home) {}
  ~TupleArena();  // pooled chunks go back to the list or the pool
  TupleArena(const TupleArena&) = delete;
  TupleArena& operator=(const TupleArena&) = delete;
  TupleArena(TupleArena&&) = delete;  // pages move the unique_ptr, never
  TupleArena& operator=(TupleArena&&) = delete;  // the arena object

  /// Bump-allocate `bytes` with `align` alignment. Never fails (grows
  /// a new chunk when the current one is exhausted).
  void* Allocate(size_t bytes, size_t align) {
    uintptr_t p = reinterpret_cast<uintptr_t>(head_);
    uintptr_t aligned = (p + (align - 1)) & ~(uintptr_t{align} - 1);
    if (aligned + bytes > reinterpret_cast<uintptr_t>(end_)) {
      return AllocateSlow(bytes, align);
    }
    head_ = reinterpret_cast<char*>(aligned + bytes);
    used_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  /// Uninitialized span of `n` objects; the caller placement-news into
  /// it. Types stored in an arena must be freed wholesale, so their
  /// destructors are never run — see the ownership rules above.
  template <typename T>
  T* AllocateSpan(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Copy `s` into the arena; the returned view borrows arena bytes
  /// and stays valid exactly as long as the arena does.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return std::string_view();
    char* dst = static_cast<char*>(Allocate(s.size(), 1));
    std::memcpy(dst, s.data(), s.size());
    return std::string_view(dst, s.size());
  }

  /// True when `p` points into one of this arena's chunks. Used by
  /// Tuple::Append to recognise a borrowed string that already lives
  /// here and skip the re-copy (Value::StringIn + Append is the
  /// documented construction pattern; without this check the bytes
  /// would land in the arena twice). O(chunks); chunk counts are
  /// single digits per page.
  bool Owns(const char* p) const {
    std::less<const char*> lt;
    for (const std::unique_ptr<char[]>& c : chunks_) {
      if (!lt(p, c.get()) && lt(p, c.get() + kChunkBytes)) return true;
    }
    for (size_t i = 0; i < big_chunks_.size(); ++i) {
      const char* base = big_chunks_[i].get();
      if (!lt(p, base) && lt(p, base + big_sizes_[i])) return true;
    }
    return false;
  }

  /// Payload bytes handed out (excludes chunk slack).
  size_t bytes_used() const { return used_; }
  size_t chunk_count() const { return chunks_.size() + big_chunks_.size(); }

 private:
  void* AllocateSlow(size_t bytes, size_t align);

  // Pooled fixed-size chunks (all kChunkBytes) and dedicated
  // oversized blocks (freed outright, never pooled; sizes tracked in
  // parallel for Owns()).
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::unique_ptr<char[]>> big_chunks_;
  std::vector<size_t> big_sizes_;
  ChunkList* home_ = nullptr;
  char* head_ = nullptr;
  char* end_ = nullptr;
  size_t used_ = 0;
};

/// Global kill switch for page arenas, consulted by Page::arena().
/// Default on; tests and benches flip it to A/B the arena path against
/// the owned-allocation fallback on identical plans (equivalence
/// suites assert the same result multisets either way). The join's
/// window-table arenas do not consult it.
class TupleArenas {
 public:
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<bool> enabled_{true};
};

/// RAII toggle for tests: arenas off (or on) within a scope.
class ScopedTupleArenasEnabled {
 public:
  explicit ScopedTupleArenasEnabled(bool on)
      : prev_(TupleArenas::enabled()) {
    TupleArenas::SetEnabled(on);
  }
  ~ScopedTupleArenasEnabled() { TupleArenas::SetEnabled(prev_); }
  ScopedTupleArenasEnabled(const ScopedTupleArenasEnabled&) = delete;
  ScopedTupleArenasEnabled& operator=(const ScopedTupleArenasEnabled&) =
      delete;

 private:
  bool prev_;
};

}  // namespace nstream

#endif  // NSTREAM_TYPES_TUPLE_ARENA_H_
