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
// Chunk sources: every arena takes its 16 KiB chunks from one
// process-wide reserve and gives them back to it (tuple_arena.cc). The
// reserve carves chunks from 1 MiB anonymous mappings, keeps up to 128
// returned chunks resident for the next take, and gives the pages of
// any further returned chunk back to the kernel (MADV_DONTNEED),
// keeping its address for a later take. Chunk memory never passes
// through malloc, whose per-thread arenas kept a freed block with the
// thread that allocated it: chunks a window close freed on one worker
// sat idle while the next window, filled on another worker, allocated
// afresh.

#ifndef NSTREAM_TYPES_TUPLE_ARENA_H_
#define NSTREAM_TYPES_TUPLE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

namespace nstream {

class TupleArena {
 public:
  // Fixed chunk size. 16 KiB holds a 128-tuple page of small tuples
  // in one chunk, so the steady-state cost is a handful of chunk
  // grabs per page, not per tuple. Chunks are RECYCLED through the
  // process-wide reserve (see tuple_arena.cc): a consumed page returns
  // its chunks, the next staged page reuses the same warm memory —
  // without recycling every page generation would touch fresh cold
  // bytes and the first-touch faults would eat the allocation win.
  // Requests larger than a chunk (with any alignment slack) get a
  // dedicated (non-pooled) heap block.
  static constexpr size_t kChunkBytes = 16 * 1024;
  // A chunk's base alignment: chunks sit at 16 KiB steps in
  // page-aligned slabs. A request aligned no stricter than this fills
  // a whole chunk with no slack.
  static constexpr size_t kChunkAlign = 4096;

  TupleArena() = default;
  ~TupleArena();  // chunks go back to the reserve
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
    for (const char* c : chunks_) {
      if (!lt(p, c) && lt(p, c + kChunkBytes)) return true;
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
  /// Base address of the `i`-th standard chunk, in the order they were
  /// taken. An owner that bump-allocates equal-sized records finds
  /// record k of chunk i at chunk(i) + k * size.
  char* chunk(size_t i) const { return chunks_[i]; }

 private:
  void* AllocateSlow(size_t bytes, size_t align);

  // Reserve chunks (all kChunkBytes) and dedicated oversized heap
  // blocks (freed outright, never pooled; sizes tracked in parallel
  // for Owns()).
  std::vector<char*> chunks_;
  std::vector<std::unique_ptr<char[]>> big_chunks_;
  std::vector<size_t> big_sizes_;
  char* head_ = nullptr;
  char* end_ = nullptr;
  size_t used_ = 0;
};

/// What the process-wide chunk reserve has done since the process
/// started. Tests and benches read it; the engine never does.
struct ChunkReserveStats {
  uint64_t slabs = 0;      // 1 MiB slabs mapped
  uint64_t carved = 0;     // chunks taken from a slab for the first time
  uint64_t idle_hits = 0;  // takes served by a resident idle chunk
  uint64_t retaken = 0;    // takes served by a released chunk
  uint64_t released = 0;   // returns whose pages went back to the kernel
};
ChunkReserveStats GetChunkReserveStats();

}  // namespace nstream

#endif  // NSTREAM_TYPES_TUPLE_ARENA_H_
