// DataQueue: the downstream (with-the-data) half of an inter-operator
// connection (Fig. 3). Producer-side page assembly with
// punctuation-triggered flush; consumer-side page pops.
//
// Pages move from one producer thread to one consumer thread through a
// lock-free structure that the queue's bound picks:
//
//   * max_pages > 0: a bounded SpscRing of pages (stream/spsc_ring.h).
//     A push into a full ring waits until the consumer pops. That is
//     the backpressure the thread-per-operator executor's edges (64
//     pages) rely on.
//   * otherwise: the unbounded SpscChain of ring segments
//     (stream/spsc_chain.h). Pushes never wait, which the scheduler
//     needs (a pool worker must not park on backpressure; output
//     credit bounds the queue instead). The scheduler forces
//     max_pages = 0, and a standalone queue gets the chain by default.
//
// Either way a push or a pop costs one release-store in the common
// case. The mutex guards only slow paths: the ring's backpressure
// wait, purge/promote surgery, snapshot/restore and notifier install.
//
// SPSC thread contract: all producer-side calls (PushTuple/
// PushPunctuation/PushEos/PushPage/Flush/OpenPageArena) from one
// thread; all consumer-side calls (TryPopPage/PurgeMatching/
// PromoteMatching) from one thread (it may be the producer's).
// Drained/HasPage/queued_pages/stats are safe from any thread.
// Feedback-exploit surgery is consumer-side because exploiters
// purge/promote their own *input* queues, so the executors satisfy the
// contract by construction.
//
// Punctuation/EOS ordering: pages leave in push order, and a
// punctuation flushes its page immediately, so a punctuation is only
// ever a page's last element.

#ifndef NSTREAM_STREAM_DATA_QUEUE_H_
#define NSTREAM_STREAM_DATA_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "stream/page.h"
#include "stream/spsc_chain.h"
#include "stream/spsc_ring.h"

namespace nstream {

class SnapshotReader;
class SnapshotWriter;

/// Tuning knobs for one queue.
struct DataQueueOptions {
  // Elements per page before an automatic flush. NiagaraST batches
  // tuples into pages to limit context switching; bench_queue measures
  // the effect of this knob.
  int page_size = 128;
  // Bound on queued pages, which also picks the structure (see the file
  // comment). > 0: a ring of this many pages, rounded up to a power of
  // two, whose producer waits while it is full (threaded executor
  // backpressure). <= 0: unbounded (the scheduler forces 0).
  int max_pages = 0;
};

/// Monotonic counters exposed for tests and benches.
struct DataQueueStats {
  uint64_t tuples_pushed = 0;
  uint64_t puncts_pushed = 0;
  uint64_t pages_flushed_full = 0;
  uint64_t pages_flushed_punct = 0;
  uint64_t pages_flushed_eos = 0;
  uint64_t pages_flushed_explicit = 0;
  uint64_t pages_pushed_whole = 0;  // pre-assembled pages via PushPage
  uint64_t pages_popped = 0;

  uint64_t pages_flushed_total() const {
    return pages_flushed_full + pages_flushed_punct + pages_flushed_eos +
           pages_flushed_explicit + pages_pushed_whole;
  }
};

class DataQueue {
 public:
  explicit DataQueue(DataQueueOptions options = {});

  // ---- Producer side ----
  void PushTuple(Tuple t);
  /// Punctuation is appended and the page is flushed immediately.
  void PushPunctuation(Punctuation p);
  /// End-of-stream marker; flushes and marks the queue finished.
  void PushEos();
  /// Enqueue a pre-assembled page of TUPLES — the page-granular fast
  /// path used by Exchange / ShardMerge / the join's result stream,
  /// which re-batch or forward whole pages instead of paying one queue
  /// transition per tuple. The open per-tuple page (if any) is flushed
  /// first so element order is preserved. The page must not contain
  /// punctuation or EOS (those must go through PushPunctuation /
  /// PushEos so their flush-and-notify semantics hold); empty pages are
  /// dropped.
  void PushPage(Page&& page);
  /// Force the open page (if any) into the queue.
  void Flush();
  /// Arena of the producer-side open page, for building emitted tuples
  /// in place (zero per-tuple heap traffic). Never null. Producer-side
  /// call; the returned arena is valid until this side's next flush,
  /// so tuples built from it must be pushed before any other queue
  /// call.
  TupleArena* OpenPageArena();

  // ---- Consumer side ----
  /// Non-blocking pop; nullopt when no complete page is queued. A
  /// consumer waits for the next page through SetConsumerNotifier.
  std::optional<Page> TryPopPage();

  /// Remove queued (not yet popped) tuples matching `pattern`.
  /// Punctuations and element order are untouched, so punctuation
  /// semantics are preserved. Returns the number of tuples removed.
  /// Used by assumed-feedback exploiters purging pending input.
  ///
  /// This is the consumer-side slow path: published pages are drained
  /// out of the ring or chain into a consumer-side staging deque
  /// (served first by subsequent pops, preserving order) and purged
  /// there. The producer's open page cannot be
  /// touched from the consumer thread, so tuples not yet published
  /// are not purged — they arrive and are handled by the exploiter's
  /// guards instead, which keeps feedback-exploit semantics sound
  /// (purging is an optimization, never required for correctness).
  int PurgeMatching(const PunctPattern& pattern);

  /// Within each queued page, stably move tuples matching `pattern`
  /// ahead of non-matching tuples. Because punctuation flushes pages, a
  /// punctuation can only be a page's last element, so reordering
  /// within a page never moves a tuple across a punctuation. Used by
  /// desired-feedback exploiters. Returns the number of tuples moved.
  /// Same consumer-side slow path as PurgeMatching.
  int PromoteMatching(const PunctPattern& pattern);

  /// True once EOS has been pushed and every page consumed.
  bool Drained() const;
  /// True if a complete page is waiting.
  bool HasPage() const;
  /// Complete pages a pop could return: pushed or restored, not yet
  /// popped or purged away (the producer's open page is not one). Exact
  /// and safe from any thread. A producer counts a page before
  /// publishing it and a consumer uncounts it after the pop, so a
  /// concurrent reader never sees fewer than are poppable.
  size_t queued_pages() const {
    return queued_pages_.load(std::memory_order_relaxed);
  }

  /// Called (outside the lock) once per published page; the executors
  /// use it to wake the consumer thread or task. Pages pushed before
  /// the notifier is installed are simply waiting in the queue —
  /// install-then-poll sees them without any notification.
  void SetConsumerNotifier(std::function<void()> fn);

  // ---- Consumer-affinity tripwire ----
  // The lock-free structures are only sound when one logical consumer
  // drains the queue. Under the pooled scheduler that consumer is a
  // *task* that migrates between workers, so thread identity cannot
  // police the contract; instead the scheduler pins each queue to its
  // consumer task's token and sets a thread-local token around every
  // slice. A consumer-side call (pop / purge / promote) from any
  // other task trips the wire: always counted, and a debug assert
  // unless tests disable fatality. Token 0 (the default everywhere
  // else) disarms the check — one relaxed load on the pop path.
  /// Expected consumer token; 0 disarms the tripwire.
  void set_consumer_affinity_token(uint64_t token) {
    expected_consumer_.store(token, std::memory_order_relaxed);
  }
  uint64_t consumer_affinity_token() const {
    return expected_consumer_.load(std::memory_order_relaxed);
  }
  /// Consumer-side calls observed with a mismatched thread token.
  uint64_t affinity_violations() const {
    return affinity_violations_.load(std::memory_order_relaxed);
  }
  /// Token of the task currently running on this thread (0 = none).
  static void SetThreadConsumerToken(uint64_t token);
  static uint64_t ThreadConsumerToken();
  /// When false, violations only count (tests exercising the wire).
  static void SetAffinityViolationsFatal(bool fatal);

  // ---- Checkpointing (consumer-side, quiesced only) ----
  /// Serialize every in-flight element without consuming it. Caller
  /// contract: the edge is QUIESCED — producer and consumer are both
  /// parked at a checkpoint barrier — so the producer-local open page
  /// is stable and safe to read from the (consumer-side) caller.
  /// Non-destructive: published pages are drained into the consumer
  /// staging deque (served before the ring or chain by later pops,
  /// order preserved) and serialized in place, then the open page.
  Status SnapshotContents(SnapshotWriter* w);
  /// Rebuild queued pages from a snapshot, ahead of any pop. The
  /// restored pages land in the consumer staging deque. eos_pushed_ is
  /// not part of the snapshot: an unconsumed EOS is impossible at
  /// barrier alignment (EOS ports are exempt from alignment and stay
  /// so).
  Status RestoreContents(SnapshotReader* r);

  DataQueueStats stats() const;

 private:
  // Internal counters. Each is written by exactly one thread (the
  // producer or the consumer), so a relaxed load+store increment — a
  // plain add, no lock prefix — is exact; atomics make the
  // cross-thread stats() snapshot race-free.
  struct AtomicStats {
    std::atomic<uint64_t> tuples_pushed{0};
    std::atomic<uint64_t> puncts_pushed{0};
    std::atomic<uint64_t> pages_flushed_full{0};
    std::atomic<uint64_t> pages_flushed_punct{0};
    std::atomic<uint64_t> pages_flushed_eos{0};
    std::atomic<uint64_t> pages_flushed_explicit{0};
    std::atomic<uint64_t> pages_pushed_whole{0};
    std::atomic<uint64_t> pages_popped{0};
  };
  static void Inc(std::atomic<uint64_t>& c, uint64_t by = 1) {
    c.store(c.load(std::memory_order_relaxed) + by,
            std::memory_order_relaxed);
  }

  void CountFlush(FlushReason reason);
  // Producer side: seal the open page / publish a ready page into the
  // ring or chain; the bounded ring waits (timed re-check) while full,
  // the chain never waits.
  void FlushOpenPage(FlushReason reason);
  void Publish(Page&& page);
  // Consumer side: move every published page into side_pages_ so
  // surgery and snapshots can operate under mu_. Requires mu_ held;
  // must be called from the consumer thread.
  void DrainToSideLocked();
  void NotifyConsumer();
  void CheckConsumerAffinity() const;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  DataQueueOptions options_;
  // Producer-side page under assembly: producer-thread-local, never
  // locked.
  Page open_page_;
  // Exactly one of ring_ (max_pages > 0) and chain_ (otherwise), plus
  // the consumer-side staging deque (guarded by mu_) that surgery,
  // snapshots and restores put pages into. side_count_ lets pops skip
  // the lock when nothing is staged (the overwhelmingly common case).
  std::unique_ptr<SpscRing<Page>> ring_;
  std::unique_ptr<SpscChain<Page>> chain_;
  std::deque<Page> side_pages_;
  std::atomic<size_t> side_count_{0};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> eos_pushed_{false};
  // Backs queued_pages(). Producer and consumer both write it, so it
  // takes real read-modify-writes.
  std::atomic<size_t> queued_pages_{0};
  std::atomic<uint64_t> expected_consumer_{0};
  mutable std::atomic<uint64_t> affinity_violations_{0};
  AtomicStats stats_;
  // Single-writer mirrors of the hottest counters: each side keeps the
  // running value in a plain field it alone owns and publishes with one
  // relaxed store, instead of paying an atomic load+store per
  // element/page.
  uint64_t spsc_tuples_pushed_ = 0;   // producer-owned
  uint64_t spsc_pages_whole_ = 0;     // producer-owned
  uint64_t spsc_pages_popped_ = 0;    // consumer-owned
  // The notifier is installed (rarely — once per run by an executor)
  // under mu_ but read lock-free on every push: the current function
  // lives behind an atomic pointer, and superseded functions are parked
  // in notifier_storage_ until destruction so a concurrent caller can
  // never see a freed function.
  std::atomic<const std::function<void()>*> consumer_notifier_{nullptr};
  std::vector<std::unique_ptr<std::function<void()>>> notifier_storage_;
};

}  // namespace nstream

#endif  // NSTREAM_STREAM_DATA_QUEUE_H_
