// SpscRing: a bounded lock-free single-producer/single-consumer ring.
//
// Under the thread-per-operator executor every plan edge is
// single-producer/single-consumer (the producer operator pushes from
// its own thread, the consumer pops from its own), which is exactly
// the shape a lock-free ring exploits: one release-store per push, one
// release-store per pop, no mutex, no condition variable, no per-page
// system call. DataQueue uses a ring of Pages for every bounded queue
// (max_pages > 0), which is what that executor's edges are.
//
// Design notes:
//   * Capacity is rounded up to a power of two so the index wrap is a
//     single mask (no division on the hot path).
//   * head_ (consumer cursor) and tail_ (producer cursor) live on
//     separate cache lines so pushes and pops never false-share.
//   * Each side keeps a *cached* copy of the other side's cursor and
//     refreshes it only when the ring looks full/empty — the common
//     case does one relaxed load + one release store, touching no
//     cache line owned by the other thread.
//   * The ring itself never blocks. Waiting (consumer wake-up on push,
//     producer backpressure on full) belongs to the caller — DataQueue
//     layers it on via its consumer-notifier hook and timed waits, so
//     the ring stays obstruction-free and trivially testable.
//
// Thread contract: TryPush from exactly one producer thread, TryPop
// from exactly one consumer thread. ApproxEmpty/ApproxSize are safe
// from any thread but only approximate while the ring is in motion.

#ifndef NSTREAM_STREAM_SPSC_RING_H_
#define NSTREAM_STREAM_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace nstream {

inline size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(size_t min_capacity)
      : slots_(RoundUpPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(slots_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Producer side. Moves from `item` ONLY on success; on a full ring
  /// returns false and leaves `item` untouched so the caller can wait
  /// and retry.
  bool TryPush(T&& item) {
    const size_t t = tail_.load(std::memory_order_relaxed);
    if (t - cached_head_ == slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ == slots_.size()) return false;  // full
    }
    slots_[t & mask_] = std::move(item);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. nullopt when the ring is empty.
  std::optional<T> TryPop() {
    const size_t h = head_.load(std::memory_order_relaxed);
    if (h == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (h == cached_tail_) return std::nullopt;  // empty
    }
    std::optional<T> out(std::move(slots_[h & mask_]));
    head_.store(h + 1, std::memory_order_release);
    return out;
  }

  /// Any thread; exact only when both sides are quiescent.
  bool ApproxEmpty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }
  size_t ApproxSize() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

 private:
  static constexpr size_t kCacheLine = 64;

  std::vector<T> slots_;
  const size_t mask_;
  // Consumer-owned line: pop cursor + the consumer's cache of tail_.
  alignas(kCacheLine) std::atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
  // Producer-owned line: push cursor + the producer's cache of head_.
  alignas(kCacheLine) std::atomic<size_t> tail_{0};
  size_t cached_head_ = 0;
  // Trailing pad so tail_'s line is not shared with whatever the
  // enclosing object places after the ring.
  char pad_[kCacheLine - sizeof(std::atomic<size_t>) - sizeof(size_t)];
};

}  // namespace nstream

#endif  // NSTREAM_STREAM_SPSC_RING_H_
