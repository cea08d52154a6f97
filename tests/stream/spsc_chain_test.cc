// SpscChain (growable lock-free SPSC) and the unbounded DataQueue
// (the default, max_pages <= 0) running over it: unbounded pushes
// across segment boundaries, FIFO order, two-thread stress,
// purge/promote surgery (which leaves the producer's open page alone),
// and arena-backed pages surviving queue hops and surgery.

#include "stream/spsc_chain.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "punct/pattern_parser.h"
#include "stream/data_queue.h"

namespace nstream {
namespace {

PunctPattern P(const std::string& text) {
  Result<PunctPattern> r = ParsePattern(text);
  EXPECT_TRUE(r.ok()) << text;
  return r.MoveValue();
}

TEST(SpscChainTest, FifoAcrossManySegments) {
  SpscChain<int> chain(/*segment_capacity=*/4);
  for (int i = 0; i < 1000; ++i) chain.Push(int(i));
  EXPECT_EQ(chain.ApproxSize(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    std::optional<int> v = chain.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(chain.TryPop().has_value());
  EXPECT_TRUE(chain.ApproxEmpty());
}

TEST(SpscChainTest, InterleavedPushPopRetiresSegments) {
  SpscChain<int> chain(2);
  int next_pop = 0;
  for (int i = 0; i < 500; ++i) {
    chain.Push(int(i));
    if (i % 3 == 0) {
      std::optional<int> v = chain.TryPop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
  }
  while (std::optional<int> v = chain.TryPop()) {
    EXPECT_EQ(*v, next_pop++);
  }
  EXPECT_EQ(next_pop, 500);
}

TEST(SpscChainTest, DropsUnconsumedItemsOnDestruction) {
  // Destruction with items still queued (possibly spanning segments)
  // must release everything — LSan is the referee.
  SpscChain<std::string> chain(2);
  for (int i = 0; i < 100; ++i) {
    chain.Push("item-" + std::to_string(i) +
               "-with-a-heap-allocated-payload");
  }
  std::optional<std::string> v = chain.TryPop();
  ASSERT_TRUE(v.has_value());
}

TEST(SpscChainTest, TwoThreadStressPreservesOrder) {
  SpscChain<int> chain(8);
  constexpr int kN = 200000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) chain.Push(int(i));
  });
  int expected = 0;
  while (expected < kN) {
    if (std::optional<int> v = chain.TryPop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(chain.ApproxEmpty());
}

// No bound: the queue rides the chain.
DataQueueOptions ChainOptions(int page_size = 4) {
  return DataQueueOptions{page_size, /*max_pages=*/0};
}

Tuple T1(int64_t v) { return TupleBuilder().I64(v).Build(); }

TEST(DataQueueChainTest, UnboundedPushAndOrderedDrain) {
  DataQueue q(ChainOptions());
  for (int i = 0; i < 1000; ++i) q.PushTuple(T1(i));
  q.PushEos();
  int64_t next = 0;
  size_t pages = 0;
  while (auto page = q.TryPopPage()) {
    ++pages;
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        EXPECT_EQ(e.tuple().value(0).int64_value(), next++);
      } else {
        EXPECT_TRUE(e.is_eos());
      }
    }
  }
  EXPECT_EQ(next, 1000);
  EXPECT_GT(pages, 100u);  // far beyond one segment's worth
  EXPECT_TRUE(q.Drained());
  DataQueueStats st = q.stats();
  EXPECT_EQ(st.tuples_pushed, 1000u);
  EXPECT_EQ(st.pages_popped, st.pages_flushed_total());
}

TEST(DataQueueChainTest, PunctuationStillFlushesImmediately) {
  DataQueue q(ChainOptions(/*page_size=*/64));
  q.PushTuple(T1(1));
  q.PushPunctuation(Punctuation(P("[<=5]")));
  auto page = q.TryPopPage();
  ASSERT_TRUE(page.has_value());
  ASSERT_EQ(page->size(), 2u);
  EXPECT_TRUE(page->elements()[1].is_punct());
  EXPECT_EQ(page->flush_reason(), FlushReason::kPunctuation);
}

TEST(DataQueueChainTest, SpscContractPurgeLeavesOpenPageAlone) {
  DataQueue q(ChainOptions(/*page_size=*/4));
  for (int i = 0; i < 10; ++i) q.PushTuple(T1(1));  // 8 published, 2 open
  int removed = q.PurgeMatching(P("[1]"));
  EXPECT_EQ(removed, 8);  // the open page is the producer's
  q.Flush();
  auto page = q.TryPopPage();
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->size(), 2u);
}

TEST(DataQueueChainTest, PromoteReordersWithinPagesFifoFirst) {
  DataQueue q(ChainOptions(/*page_size=*/4));
  for (int i = 0; i < 8; ++i) q.PushTuple(T1(i % 4));
  int moved = q.PromoteMatching(P("[3]"));
  EXPECT_GT(moved, 0);
  // Surgery staged the pages; later pushes go behind them.
  q.PushTuple(T1(99));
  q.PushEos();
  std::vector<int64_t> order;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) order.push_back(e.tuple().value(0).int64_value());
    }
  }
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], 3);            // promoted ahead within page 1
  EXPECT_EQ(order.back(), 99);       // post-surgery push stays last
}

TEST(DataQueueChainTest, ArenaTuplesSurviveHopAndSurgery) {
  DataQueue q(ChainOptions(/*page_size=*/4));
  // Build tuples in the queue's own open-page arena, the zero-copy
  // emit path, across several page flushes and a purge in between.
  for (int i = 0; i < 10; ++i) {
    TupleArena* arena = q.OpenPageArena();
    ASSERT_NE(arena, nullptr);
    Tuple t(arena, 2);
    t.Append(Value::StringIn(arena, "payload-" + std::to_string(i)));
    t.Append(Value::Int64(i));
    q.PushTuple(std::move(t));
    if (i == 5) {
      EXPECT_EQ(q.PurgeMatching(P("[*,<=1]")), 2);
    }
  }
  q.PushEos();
  std::vector<std::string> seen;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        seen.push_back(std::string(e.tuple().value(0).string_view()));
      }
    }
  }
  ASSERT_EQ(seen.size(), 8u);  // 10 pushed - 2 purged
  EXPECT_EQ(seen.front(), "payload-2");
  EXPECT_EQ(seen.back(), "payload-9");
}

TEST(DataQueueRingTest, ArenaTuplesSurviveRingSurgery) {
  // Same surgery soundness on the bounded SPSC ring: published pages
  // holding arena-backed tuples are drained into the staging deque,
  // operated on, and served FIFO-first with payloads intact.
  DataQueue q(DataQueueOptions{/*page_size=*/4, /*max_pages=*/8});
  for (int i = 0; i < 8; ++i) {
    TupleArena* arena = q.OpenPageArena();
    ASSERT_NE(arena, nullptr);
    Tuple t(arena, 2);
    t.Append(Value::StringIn(arena, "ring-" + std::to_string(i)));
    t.Append(Value::Int64(i));
    q.PushTuple(std::move(t));
  }
  EXPECT_EQ(q.PurgeMatching(P("[*,4]")), 1);
  EXPECT_GT(q.PromoteMatching(P("[*,3]")), 0);
  q.PushEos();
  std::vector<std::string> seen;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        seen.push_back(std::string(e.tuple().value(0).string_view()));
      }
    }
  }
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen[0], "ring-3");  // promoted within its page
}

TEST(DataQueueChainTest, TwoThreadProducerConsumer) {
  DataQueue q(ChainOptions(/*page_size=*/8));
  constexpr int kN = 50000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.PushTuple(T1(i));
    q.PushEos();
  });
  int64_t next = 0;
  int eos = 0;
  while (!q.Drained()) {
    std::optional<Page> page = q.TryPopPage();
    if (!page.has_value()) {
      std::this_thread::yield();
      continue;
    }
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        ASSERT_EQ(e.tuple().value(0).int64_value(), next++);
      } else if (e.is_eos()) {
        ++eos;
      }
    }
  }
  producer.join();
  EXPECT_EQ(next, kN);
  EXPECT_EQ(eos, 1);
}

}  // namespace
}  // namespace nstream
