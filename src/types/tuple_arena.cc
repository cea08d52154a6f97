#include "types/tuple_arena.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <mutex>
#include <new>

namespace nstream {
namespace {

// The process-wide source of every arena chunk. A consumed page's
// arena returns its chunks here; the next staged page takes the same
// (cache- and TLB-warm) memory back. Without recycling every page
// generation bump-allocates fresh bytes, and the first-touch cost of
// that cold memory erases most of what skipping per-tuple malloc/free
// bought. Chunks are carved from 1 MiB anonymous mappings (slabs), so
// they never sit in a thread's malloc arena, and one reserve serves
// every worker: a closed window's chunks refill the next window on
// whichever worker runs it. A mutex is plenty, since traffic is a few
// chunks per page, not per tuple.
//
// A returned chunk stays resident while fewer than kMaxIdle are idle;
// past that, its pages go back to the kernel and the reserve keeps its
// address, so a burst (a window close releasing hundreds of chunks)
// costs no resident memory afterwards and maps no new slab when the
// next window fills. Takes prefer idle chunks, then released ones,
// then a slab's uncarved rest. Slabs are never unmapped: the address
// space a process used stays its reserve, at one mapping per 64
// chunks. Under ASan an idle or released chunk, and a slab's uncarved
// rest, are poisoned, so a read through a dead page's arena reports.
class ChunkReserve {
 public:
  static constexpr size_t kSlabBytes = size_t{1} << 20;
  // 2 MiB with 16 KiB chunks: enough for every in-flight page of a
  // deep pipeline.
  static constexpr size_t kMaxIdle = 128;

  static ChunkReserve& Global() {
    static ChunkReserve* reserve = new ChunkReserve();  // intentionally leaked
    return *reserve;
  }

  char* Take() {
    char* chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        chunk = idle_.back();
        idle_.pop_back();
        ++stats_.idle_hits;
      } else if (!released_.empty()) {
        chunk = released_.back();
        released_.pop_back();
        ++stats_.retaken;
      } else {
        if (carve_ == slab_end_) {
          void* slab = ::mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
          if (slab == MAP_FAILED) throw std::bad_alloc();
          carve_ = static_cast<char*>(slab);
          slab_end_ = carve_ + kSlabBytes;
          ASAN_POISON_MEMORY_REGION(carve_, kSlabBytes);
          ++stats_.slabs;
        }
        chunk = carve_;
        carve_ += TupleArena::kChunkBytes;
        ++stats_.carved;
      }
    }
    // The chunk is the caller's alone from here on.
    ASAN_UNPOISON_MEMORY_REGION(chunk, TupleArena::kChunkBytes);
    return chunk;
  }

  void Give(const std::vector<char*>& chunks) {
    // Poisoned before any other thread can take them.
    for (char* c : chunks) {
      ASAN_POISON_MEMORY_REGION(c, TupleArena::kChunkBytes);
    }
    size_t kept;
    {
      std::lock_guard<std::mutex> lock(mu_);
      kept = std::min(chunks.size(), kMaxIdle - idle_.size());
      idle_.insert(idle_.end(), chunks.begin(), chunks.begin() + kept);
    }
    if (kept == chunks.size()) return;
    // Past the idle cap: give the pages back outside the lock. A
    // failed madvise leaves a resident chunk, which is still a chunk.
    for (size_t i = kept; i < chunks.size(); ++i) {
      ::madvise(chunks[i], TupleArena::kChunkBytes, MADV_DONTNEED);
    }
    std::lock_guard<std::mutex> lock(mu_);
    released_.insert(released_.end(), chunks.begin() + kept, chunks.end());
    stats_.released += chunks.size() - kept;
  }

  ChunkReserveStats Stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  ChunkReserve() { idle_.reserve(kMaxIdle); }

  std::mutex mu_;
  std::vector<char*> idle_;      // resident, most recently returned last
  std::vector<char*> released_;  // pages given back to the kernel
  char* carve_ = nullptr;        // the current slab's uncarved rest
  char* slab_end_ = nullptr;
  ChunkReserveStats stats_;
};

}  // namespace

ChunkReserveStats GetChunkReserveStats() {
  return ChunkReserve::Global().Stats();
}

TupleArena::~TupleArena() {
  // big_chunks_ free normally with the vector.
  if (!chunks_.empty()) ChunkReserve::Global().Give(chunks_);
}

void* TupleArena::AllocateSlow(size_t bytes, size_t align) {
  const size_t want = bytes + (align > kChunkAlign ? align : 0);
  char* base;
  if (want > kChunkBytes) {
    // Oversized request: dedicated block, never pooled, and the bump
    // cursor stays on the current standard chunk (an oversized string
    // must not strand the remainder of a fresh 16 KiB chunk).
    auto big = std::unique_ptr<char[]>(new char[want]);
    base = big.get();
    big_chunks_.push_back(std::move(big));
    big_sizes_.push_back(want);
    uintptr_t aligned =
        (reinterpret_cast<uintptr_t>(base) + (align - 1)) &
        ~(uintptr_t{align} - 1);
    used_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }
  base = ChunkReserve::Global().Take();
  chunks_.push_back(base);
  const uintptr_t aligned =
      (reinterpret_cast<uintptr_t>(base) + (align - 1)) &
      ~(uintptr_t{align} - 1);
  char* rest = reinterpret_cast<char*>(aligned + bytes);
  // Keep bumping in whichever chunk has more room left, so a request
  // that fills most of a fresh chunk (a 1,024-row column array) does
  // not strand the rest of the current one.
  if (base + kChunkBytes - rest > end_ - head_) {
    head_ = rest;
    end_ = base + kChunkBytes;
  }
  used_ += bytes;
  return reinterpret_cast<void*>(aligned);
}

}  // namespace nstream
