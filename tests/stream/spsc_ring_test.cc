// The bounded SPSC ring: the raw lock-free ring (wraparound,
// full/empty discipline) and a bounded DataQueue (max_pages > 0)
// running over it — flush semantics, capacity-full backpressure,
// notifier-installed-after-first-push ordering, the consumer-side
// purge/promote slow path, and randomized producer/consumer stress
// runs that drain through EOS. The whole file runs under the TSan CI
// job, which is where the acquire/release choreography is actually
// proven.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "punct/compiled_pattern.h"
#include "stream/data_queue.h"
#include "stream/spsc_ring.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::P;

Tuple T(int64_t v) { return TupleBuilder().I64(v).Build(); }

// Any bound > 0 puts the queue on the ring; 64 is the threaded
// executor's.
DataQueueOptions RingOptions(int page_size, int max_pages = 64) {
  return DataQueueOptions{page_size, max_pages};
}

Page PageOf(std::initializer_list<int64_t> vals) {
  Page p;
  for (int64_t v : vals) p.Add(StreamElement::OfTuple(T(v)));
  return p;
}

// ---- Raw ring ----

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, WraparoundManyTimesOverSmallCapacity) {
  // 1000 items through a 4-slot ring: the indices wrap 250 times and
  // every item must come out exactly once, in order.
  SpscRing<int> ring(4);
  int next_push = 0;
  int next_pop = 0;
  while (next_pop < 1000) {
    // Fill as far as possible, then drain a few — exercises both the
    // full and the partially-full wrap paths.
    while (next_push < 1000) {
      int v = next_push;
      if (!ring.TryPush(std::move(v))) break;
      ++next_push;
    }
    for (int k = 0; k < 3 && next_pop < next_push; ++k) {
      std::optional<int> out = ring.TryPop();
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_FALSE(ring.TryPop().has_value());
  EXPECT_TRUE(ring.ApproxEmpty());
}

TEST(SpscRing, TryPushOnFullRingLeavesItemIntact) {
  SpscRing<std::vector<int>> ring(2);
  EXPECT_TRUE(ring.TryPush({1}));
  EXPECT_TRUE(ring.TryPush({2}));
  std::vector<int> spare = {3, 4, 5};
  EXPECT_FALSE(ring.TryPush(std::move(spare)));
  // Not moved-from: a failed push must not consume the page.
  EXPECT_EQ(spare.size(), 3u);
  EXPECT_EQ(ring.ApproxSize(), 2u);
}

// ---- DataQueue over the ring: core semantics parity ----

TEST(SpscQueue, PageFlushReasonsAndStats) {
  DataQueue q(RingOptions(/*page_size=*/2));
  q.PushTuple(T(1));
  EXPECT_FALSE(q.HasPage());
  q.PushTuple(T(2));  // full
  ASSERT_TRUE(q.HasPage());
  q.PushPunctuation(Punctuation(P("[*]")));
  q.PushEos();
  DataQueueStats s = q.stats();
  EXPECT_EQ(s.tuples_pushed, 2u);
  EXPECT_EQ(s.puncts_pushed, 1u);
  EXPECT_EQ(s.pages_flushed_full, 1u);
  EXPECT_EQ(s.pages_flushed_punct, 1u);
  EXPECT_EQ(s.pages_flushed_eos, 1u);

  EXPECT_EQ(q.TryPopPage()->flush_reason(), FlushReason::kPageFull);
  EXPECT_EQ(q.TryPopPage()->flush_reason(), FlushReason::kPunctuation);
  Page last = *q.TryPopPage();
  EXPECT_TRUE(last.elements().back().is_eos());
  EXPECT_TRUE(q.Drained());
  EXPECT_EQ(q.stats().pages_popped, 3u);
}

TEST(SpscQueue, PushPageFlushesOpenPageFirst) {
  DataQueue q(RingOptions(/*page_size=*/100));
  q.PushTuple(T(1));  // staged tuple-at-a-time
  q.PushPage(PageOf({2, 3}));
  // Order preserved: the open page (tuple 1) precedes the whole page.
  Page first = *q.TryPopPage();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.elements()[0].tuple().value(0).int64_value(), 1);
  Page second = *q.TryPopPage();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(q.stats().pages_pushed_whole, 1u);
  EXPECT_EQ(q.stats().tuples_pushed, 3u);
}

// ---- Backpressure ----

TEST(SpscQueue, CapacityFullBlocksProducerUntilPop) {
  // max_pages=2 -> ring capacity 2. Two one-tuple pages fill it; the
  // third push must block until the consumer frees a slot.
  DataQueue q(RingOptions(/*page_size=*/1, /*max_pages=*/2));
  q.PushTuple(T(1));
  q.PushTuple(T(2));
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    q.PushTuple(T(3));  // blocks on the full ring
    third_done.store(true);
  });
  // Give the producer ample chance to (incorrectly) complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_done.load());
  ASSERT_TRUE(q.TryPopPage().has_value());  // frees one slot
  producer.join();
  EXPECT_TRUE(third_done.load());
  // Everything still drains in order.
  EXPECT_EQ(q.TryPopPage()->elements()[0].tuple().value(0).int64_value(),
            2);
  EXPECT_EQ(q.TryPopPage()->elements()[0].tuple().value(0).int64_value(),
            3);
}

// ---- Notifier ordering ----

TEST(SpscQueue, NotifierInstalledAfterFirstPushStillSeesEverything) {
  DataQueue q(RingOptions(/*page_size=*/1));
  q.PushTuple(T(1));  // page published before any notifier exists
  int notified = 0;
  q.SetConsumerNotifier([&] { ++notified; });
  EXPECT_EQ(notified, 0);
  // The pre-notifier page is discoverable by polling — the threaded
  // executor's install-then-poll startup relies on this.
  ASSERT_TRUE(q.HasPage());
  q.PushTuple(T(2));
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(q.TryPopPage()->elements()[0].tuple().value(0).int64_value(),
            1);
  EXPECT_EQ(q.TryPopPage()->elements()[0].tuple().value(0).int64_value(),
            2);
}

// ---- Consumer-side purge/promote slow path ----

TEST(SpscQueue, PurgeMatchingPreservesPunctuationAndOrder) {
  DataQueue q(RingOptions(/*page_size=*/4));
  for (int i = 0; i < 3; ++i) q.PushTuple(T(i));
  q.PushPunctuation(Punctuation(P("[<=2]")));
  for (int i = 3; i < 6; ++i) q.PushTuple(T(i));
  q.Flush();

  int removed = q.PurgeMatching(P("[<=1]"));  // drops 0, 1
  EXPECT_EQ(removed, 2);
  std::vector<int64_t> tuples;
  int punct_at = -1;
  int idx = 0;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        tuples.push_back(e.tuple().value(0).int64_value());
        ++idx;
      } else if (e.is_punct()) {
        punct_at = idx;
      }
    }
  }
  EXPECT_EQ(tuples, (std::vector<int64_t>{2, 3, 4, 5}));
  EXPECT_EQ(punct_at, 1);  // still between tuple 2 and tuple 3
}

TEST(SpscQueue, PurgeDropsEmptiedPagesAndPopsServeSideFirst) {
  DataQueue q(RingOptions(/*page_size=*/2));
  for (int i = 0; i < 4; ++i) q.PushTuple(T(1));  // two pages of 1s
  EXPECT_EQ(q.PurgeMatching(P("[1]")), 4);
  EXPECT_FALSE(q.HasPage());
  // New pages pushed AFTER the purge flow through normally.
  q.PushTuple(T(7));
  q.PushTuple(T(8));
  Page page = *q.TryPopPage();
  EXPECT_EQ(page.elements()[0].tuple().value(0).int64_value(), 7);
}

TEST(SpscQueue, PurgeThenPushKeepsFifoAcrossSideAndRing) {
  DataQueue q(RingOptions(/*page_size=*/2));
  for (int i = 0; i < 4; ++i) q.PushTuple(T(i));  // pages {0,1} {2,3}
  // Purge something that empties nothing: pages land in the side deque.
  EXPECT_EQ(q.PurgeMatching(P("[>=100]")), 0);
  // Newer pages go to the ring behind them.
  q.PushTuple(T(4));
  q.PushTuple(T(5));
  std::vector<int64_t> order;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      order.push_back(e.tuple().value(0).int64_value());
    }
  }
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(SpscQueue, PromoteMatchingReordersWithinPagesOnly) {
  DataQueue q(RingOptions(/*page_size=*/4));
  q.PushTuple(T(1));
  q.PushTuple(T(9));
  q.PushTuple(T(2));
  q.PushTuple(T(8));  // page flushes
  int moved = q.PromoteMatching(P("[>=8]"));
  EXPECT_GT(moved, 0);
  Page page = *q.TryPopPage();
  std::vector<int64_t> order;
  for (const StreamElement& e : page.elements()) {
    order.push_back(e.tuple().value(0).int64_value());
  }
  EXPECT_EQ(order, (std::vector<int64_t>{9, 8, 1, 2}));
}

TEST(SpscQueue, PromoteNeverCrossesPunctuation) {
  DataQueue q(RingOptions(/*page_size=*/100));
  q.PushTuple(T(1));
  q.PushPunctuation(Punctuation(P("[<=1]")));  // flushes page 1
  q.PushTuple(T(9));
  q.Flush();
  q.PromoteMatching(P("[9]"));
  Page first = *q.TryPopPage();
  EXPECT_TRUE(first.elements().back().is_punct());
  Page second = *q.TryPopPage();
  EXPECT_EQ(second.elements().front().tuple().value(0).int64_value(), 9);
}

TEST(SpscQueue, PurgeRoutesThroughGlobalPatternCache) {
  // Feedback exploited at many hops purges with the same pattern at
  // every hop; the queue must fetch the compilation from the global
  // cache instead of recompiling.
  DataQueue q(RingOptions(2));
  for (int i = 0; i < 4; ++i) q.PushTuple(T(i));
  PunctPattern pattern = P("[>=900]");
  (void)q.PurgeMatching(pattern);  // primes the cache if needed
  uint64_t hits_before = CompiledPatternCache::Global().hits();
  (void)q.PurgeMatching(pattern);
  (void)q.PromoteMatching(pattern);
  EXPECT_GE(CompiledPatternCache::Global().hits(), hits_before + 2);
}

// ---- Randomized producer/consumer stress (TSan target) ----

TEST(SpscQueueStress, RandomizedProducerConsumerPreservesStream) {
  // A real two-thread run over a small bounded ring: backpressure,
  // punctuation flushes, wraparound, and the EOS handshake all under
  // load. Sequence integrity: tuple ids strictly increasing, every
  // punctuation bound matches the last id before it, exactly one EOS
  // at the very end.
  const int kTuples = 20000;
  DataQueue q(RingOptions(/*page_size=*/8, /*max_pages=*/4));
  std::thread producer([&] {
    std::mt19937 rng(42);
    for (int i = 0; i < kTuples; ++i) {
      q.PushTuple(T(i));
      if (rng() % 64 == 0) {
        q.PushPunctuation(Punctuation(
            PunctPattern::AllWildcard(1).With(
                0, AttrPattern::Le(Value::Int64(i)))));
      }
    }
    q.PushEos();
  });

  int64_t last_id = -1;
  int tuple_count = 0;
  int eos_count = 0;
  while (!q.Drained()) {
    std::optional<Page> page = q.TryPopPage();
    if (!page.has_value()) {
      std::this_thread::yield();
      continue;
    }
    for (const StreamElement& e : page->elements()) {
      switch (e.kind()) {
        case ElementKind::kTuple: {
          int64_t id = e.tuple().value(0).int64_value();
          EXPECT_EQ(id, last_id + 1);
          last_id = id;
          ++tuple_count;
          break;
        }
        case ElementKind::kPunctuation: {
          Result<int64_t> bound =
              e.punct().pattern().attr(0).operand().AsInt64();
          ASSERT_TRUE(bound.ok());
          EXPECT_EQ(bound.value(), last_id);
          break;
        }
        case ElementKind::kEndOfStream:
          ++eos_count;
          break;
      }
    }
  }
  producer.join();
  EXPECT_EQ(tuple_count, kTuples);
  EXPECT_EQ(eos_count, 1);
  EXPECT_TRUE(q.Drained());
}

TEST(SpscQueueStress, ConcurrentStatsReadsAreRaceFree) {
  // A third thread hammering stats()/Drained()/HasPage() while the
  // stream flows — the introspection calls the executors and tests
  // make from outside the producer/consumer pair.
  const int kTuples = 5000;
  DataQueue q(RingOptions(/*page_size=*/4, /*max_pages=*/8));
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    uint64_t sink = 0;
    while (!stop.load()) {
      DataQueueStats s = q.stats();
      sink += s.tuples_pushed + s.pages_popped +
              static_cast<uint64_t>(q.HasPage()) +
              static_cast<uint64_t>(q.Drained());
    }
    EXPECT_GE(sink, 0u);
  });
  std::thread producer([&] {
    for (int i = 0; i < kTuples; ++i) q.PushTuple(T(i));
    q.PushEos();
  });
  size_t popped = 0;
  while (!q.Drained()) {
    if (std::optional<Page> page = q.TryPopPage()) {
      popped += page->size();
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  stop.store(true);
  observer.join();
  EXPECT_EQ(q.stats().tuples_pushed, static_cast<uint64_t>(kTuples));
  EXPECT_TRUE(q.Drained());
}

}  // namespace
}  // namespace nstream
