// SpscChain: an UNBOUNDED single-producer/single-consumer queue built
// as a linked chain of bounded lock-free SpscRing segments.
//
// The bounded SpscRing gives threaded-executor edges a contention-free
// transport, but the scheduler needs unbounded queues — a pool worker
// cannot block on backpressure (output credit bounds its edges
// instead). The chain closes that gap: pushes never fail (a full
// segment links a fresh one), pops retire drained segments, and both
// sides keep the ring's one-release-store cost in the common case.
//
// Design notes:
//   * The producer owns `tail_` (the segment it pushes into); the
//     consumer owns `head_` (the segment it pops from). They only
//     communicate through each segment's ring cursors and the `next`
//     pointer, both release/acquire.
//   * A producer links a new segment ONLY after its current segment's
//     ring is full, so when the consumer sees (ring empty, next set)
//     the old segment is fully drained and can be deleted — the
//     producer never touches a segment again after linking past it.
//   * approximate size/emptiness come from monotonic single-writer
//     push/pop counters, so any thread may ask without touching the
//     segment pointers.
//
// Thread contract: Push from exactly one producer thread, TryPop from
// exactly one consumer thread (the same thread may do both — the
// manual-mode scheduler's shape). ApproxEmpty/ApproxSize from any
// thread.

#ifndef NSTREAM_STREAM_SPSC_CHAIN_H_
#define NSTREAM_STREAM_SPSC_CHAIN_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>

#include "stream/spsc_ring.h"

namespace nstream {

template <typename T>
class SpscChain {
 public:
  /// `segment_capacity` is rounded up to a power of two (minimum 2);
  /// it bounds segment churn, not queue length.
  explicit SpscChain(size_t segment_capacity = 64)
      : segment_capacity_(segment_capacity < 2 ? 2 : segment_capacity) {
    head_ = tail_ = new Segment(segment_capacity_);
  }

  SpscChain(const SpscChain&) = delete;
  SpscChain& operator=(const SpscChain&) = delete;

  ~SpscChain() {
    Segment* s = head_;
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      delete s;
      s = next;
    }
  }

  /// Producer side. Never fails; a full segment links a fresh one.
  void Push(T&& item) {
    if (!tail_->ring.TryPush(std::move(item))) {
      Segment* fresh = new Segment(segment_capacity_);
      bool ok = fresh->ring.TryPush(std::move(item));
      (void)ok;  // a fresh ring of capacity >= 2 cannot be full
      // Publish the segment only after its first item is inside, so a
      // consumer that observes `next` observes a non-racy ring.
      tail_->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
    }
    pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
  }

  /// Consumer side. nullopt when every published item was consumed.
  std::optional<T> TryPop() {
    while (true) {
      std::optional<T> out = head_->ring.TryPop();
      if (!out.has_value()) {
        // Ring looked empty. If the producer has linked a successor,
        // it will never push here again — but the emptiness read may
        // predate the pushes that `next`'s release-store publishes,
        // so re-check the ring AFTER acquiring `next`; only a
        // genuinely drained segment is retired. (Skipping this
        // re-check loses a full segment of items under exactly the
        // right interleaving — the two-thread stress test caught it.)
        Segment* next = head_->next.load(std::memory_order_acquire);
        if (next == nullptr) return std::nullopt;
        out = head_->ring.TryPop();
        if (!out.has_value()) {
          delete head_;
          head_ = next;
          continue;
        }
      }
      popped_.store(popped_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
      return out;
    }
  }

  /// Any thread; exact only when both sides are quiescent.
  size_t ApproxSize() const {
    uint64_t pushed = pushed_.load(std::memory_order_acquire);
    uint64_t popped = popped_.load(std::memory_order_acquire);
    return pushed >= popped ? static_cast<size_t>(pushed - popped) : 0;
  }
  bool ApproxEmpty() const { return ApproxSize() == 0; }

  size_t segment_capacity() const { return segment_capacity_; }

 private:
  struct Segment {
    explicit Segment(size_t cap) : ring(cap) {}
    SpscRing<T> ring;
    std::atomic<Segment*> next{nullptr};
  };

  const size_t segment_capacity_;
  // Consumer-owned line.
  alignas(64) Segment* head_ = nullptr;
  std::atomic<uint64_t> popped_{0};
  // Producer-owned line.
  alignas(64) Segment* tail_ = nullptr;
  std::atomic<uint64_t> pushed_{0};
};

}  // namespace nstream

#endif  // NSTREAM_STREAM_SPSC_CHAIN_H_
