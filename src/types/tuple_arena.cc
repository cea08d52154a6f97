#include "types/tuple_arena.h"

#include <mutex>

namespace nstream {
namespace {

// Process-wide recycling pool for fixed-size arena chunks. A consumed
// page's arena returns its chunks here; the next staged page grabs
// the same (cache- and TLB-warm) memory back. Without recycling every
// page generation bump-allocates fresh bytes, and the first-touch
// cost of that cold memory erases most of what skipping per-tuple
// malloc/free bought. The pool is shared across threads (pages are
// produced and consumed on different threads under the threaded
// executor): a mutex is plenty, since traffic is a few chunks per
// page, not per tuple.
class ChunkPool {
 public:
  // Cap the parked memory at 128 chunks (2 MiB with 16 KiB chunks) —
  // enough for every in-flight page of a deep pipeline; beyond that,
  // chunks are simply freed.
  static constexpr size_t kMaxParked = 128;

  static ChunkPool& Global() {
    static ChunkPool* pool = new ChunkPool();  // intentionally leaked
    return *pool;
  }

  std::unique_ptr<char[]> Get() {
    std::lock_guard<std::mutex> lock(mu_);
    if (parked_.empty()) return nullptr;
    std::unique_ptr<char[]> out = std::move(parked_.back());
    parked_.pop_back();
    return out;
  }

  void Put(std::unique_ptr<char[]> chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    if (parked_.size() < kMaxParked) parked_.push_back(std::move(chunk));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<char[]>> parked_;
};

}  // namespace

TupleArena::~TupleArena() {
  // big_chunks_ free normally with the vector.
  if (home_ != nullptr) {
    for (std::unique_ptr<char[]>& c : chunks_) {
      home_->chunks_.push_back(std::move(c));
    }
    return;
  }
  ChunkPool& pool = ChunkPool::Global();
  for (std::unique_ptr<char[]>& c : chunks_) pool.Put(std::move(c));
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
  std::unique_ptr<char[]> chunk;
  if (home_ != nullptr && !home_->chunks_.empty()) {
    chunk = std::move(home_->chunks_.back());
    home_->chunks_.pop_back();
  } else {
    if (home_ != nullptr) ++home_->misses_;
    chunk = ChunkPool::Global().Get();
  }
  if (chunk == nullptr) {
    // Default-init (no value-init): make_unique<char[]> would memset
    // every chunk, charging each page ~a cache-line wipe per tuple.
    chunk = std::unique_ptr<char[]>(new char[kChunkBytes]);
  }
  base = chunk.get();
  chunks_.push_back(std::move(chunk));
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
