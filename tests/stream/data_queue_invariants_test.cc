// DataQueue surgery invariants: PurgeMatching and PromoteMatching must
// never move a tuple across a punctuation, must keep punctuation and
// EOS markers intact, and the stats counters must stay accurate —
// queued_pages() included, on the chain and on the ring.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "recovery/snapshot.h"
#include "stream/data_queue.h"
#include "types/tuple.h"

namespace nstream {
namespace {

Tuple T(int64_t id, int64_t v) {
  return TupleBuilder().I64(id).I64(v).Build();
}

Punctuation PunctLe(int64_t bound) {
  return Punctuation(PunctPattern::AllWildcard(2).With(
      0, AttrPattern::Le(Value::Int64(bound))));
}

PunctPattern MatchSecondGe(int64_t bound) {
  return PunctPattern::AllWildcard(2).With(
      1, AttrPattern::Ge(Value::Int64(bound)));
}

// Flatten all queued pages (in order) for inspection.
std::vector<StreamElement> Drain(DataQueue* q) {
  std::vector<StreamElement> out;
  while (auto page = q->TryPopPage()) {
    for (StreamElement& e : page->mutable_elements()) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

TEST(DataQueueInvariants, PurgePreservesPunctuationAndOrder) {
  DataQueue q(DataQueueOptions{4, 0});
  // Page 1: ids 0..2 + punct (flushes). Page 2: ids 3..5 (page full at
  // 4 would split; keep 3 then flush via EOS).
  for (int i = 0; i < 3; ++i) q.PushTuple(T(i, i % 2));
  q.PushPunctuation(PunctLe(2));
  for (int i = 3; i < 6; ++i) q.PushTuple(T(i, i % 2));
  q.PushEos();

  // Purge all tuples with odd second attribute (ids 1, 3, 5).
  int removed = q.PurgeMatching(MatchSecondGe(1));
  EXPECT_EQ(removed, 3);

  std::vector<StreamElement> left = Drain(&q);
  // Remaining: t0, t2, punct, t4, EOS — original relative order.
  ASSERT_EQ(left.size(), 5u);
  EXPECT_TRUE(left[0].is_tuple());
  EXPECT_EQ(left[0].tuple().value(0).int64_value(), 0);
  EXPECT_TRUE(left[1].is_tuple());
  EXPECT_EQ(left[1].tuple().value(0).int64_value(), 2);
  EXPECT_TRUE(left[2].is_punct());
  EXPECT_TRUE(left[3].is_tuple());
  EXPECT_EQ(left[3].tuple().value(0).int64_value(), 4);
  EXPECT_TRUE(left[4].is_eos());
}

TEST(DataQueueInvariants, PurgeDropsEmptiedPagesAndCountsAccurately) {
  DataQueue q(DataQueueOptions{2, 0});
  for (int i = 0; i < 6; ++i) q.PushTuple(T(i, 1));  // 3 full pages
  EXPECT_EQ(q.stats().pages_flushed_full, 3u);

  int removed = q.PurgeMatching(MatchSecondGe(1));  // everything
  EXPECT_EQ(removed, 6);
  // All pages were emptied and must have been dropped: nothing to pop.
  EXPECT_FALSE(q.HasPage());
  q.PushEos();
  EXPECT_TRUE(q.TryPopPage().has_value());
  EXPECT_TRUE(q.Drained());
}

TEST(DataQueueInvariants, PromoteNeverCrossesPunctuation) {
  DataQueue q(DataQueueOptions{8, 0});
  // Page 1 (punct-flushed): t0(v=0), t1(v=9), punct.
  q.PushTuple(T(0, 0));
  q.PushTuple(T(1, 9));
  q.PushPunctuation(PunctLe(1));
  // Page 2: t2(v=0), t3(v=9), t4(v=0) — flushed by EOS.
  q.PushTuple(T(2, 0));
  q.PushTuple(T(3, 9));
  q.PushTuple(T(4, 0));
  q.PushEos();

  int moved = q.PromoteMatching(MatchSecondGe(5));  // v==9 tuples
  EXPECT_EQ(moved, 2);  // t1 within page 1, t3 within page 2

  std::vector<StreamElement> order = Drain(&q);
  ASSERT_EQ(order.size(), 7u);
  // Page 1 reordered to t1, t0, punct: the punctuation is still after
  // every tuple of its page, and no page-2 tuple jumped before it.
  EXPECT_EQ(order[0].tuple().value(0).int64_value(), 1);
  EXPECT_EQ(order[1].tuple().value(0).int64_value(), 0);
  EXPECT_TRUE(order[2].is_punct());
  // Page 2 reordered to t3, t2, t4 (stable among non-matching).
  EXPECT_EQ(order[3].tuple().value(0).int64_value(), 3);
  EXPECT_EQ(order[4].tuple().value(0).int64_value(), 2);
  EXPECT_EQ(order[5].tuple().value(0).int64_value(), 4);
  EXPECT_TRUE(order[6].is_eos());
}

TEST(DataQueueInvariants, PromoteCountsOnlyRealMoves) {
  DataQueue q(DataQueueOptions{4, 0});
  q.PushTuple(T(0, 9));
  q.PushTuple(T(1, 9));
  q.Flush();
  // All tuples match: nothing actually jumps ahead of a non-match.
  EXPECT_EQ(q.PromoteMatching(MatchSecondGe(5)), 0);
  // None match: also no moves.
  EXPECT_EQ(q.PromoteMatching(MatchSecondGe(100)), 0);
}

TEST(DataQueueInvariants, StatsCountersAccurate) {
  DataQueue q(DataQueueOptions{2, 0});
  q.PushTuple(T(0, 0));
  q.PushTuple(T(1, 0));       // full flush
  q.PushTuple(T(2, 0));
  q.PushPunctuation(PunctLe(2));  // punct flush
  q.PushTuple(T(3, 0));
  q.Flush();                  // explicit flush
  q.PushEos();                // EOS flush

  DataQueueStats s = q.stats();
  EXPECT_EQ(s.tuples_pushed, 4u);
  EXPECT_EQ(s.puncts_pushed, 1u);
  EXPECT_EQ(s.pages_flushed_full, 1u);
  EXPECT_EQ(s.pages_flushed_punct, 1u);
  EXPECT_EQ(s.pages_flushed_explicit, 1u);
  EXPECT_EQ(s.pages_flushed_eos, 1u);
  EXPECT_EQ(s.pages_flushed_total(), 4u);

  int pops = 0;
  while (q.TryPopPage()) ++pops;
  EXPECT_EQ(pops, 4);
  EXPECT_EQ(q.stats().pages_popped, 4u);
  EXPECT_TRUE(q.Drained());
}

TEST(DataQueueInvariants, PushPageFlushesOpenPageFirst) {
  // The page-granular fast path (Exchange/ShardMerge) must never let a
  // whole page overtake tuples staged element-wise before it.
  DataQueue q(DataQueueOptions{128, 0});
  q.PushTuple(T(1, 0));
  q.PushTuple(T(2, 0));  // both sit in the open page (128 > 2)

  Page whole;
  whole.Add(StreamElement::OfTuple(T(3, 0)));
  whole.Add(StreamElement::OfTuple(T(4, 0)));
  q.PushPage(std::move(whole));
  q.PushPunctuation(PunctLe(4));

  std::vector<StreamElement> all = Drain(&q);
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(all[static_cast<size_t>(i)].is_tuple());
    EXPECT_EQ(all[static_cast<size_t>(i)].tuple().value(0),
              Value::Int64(i + 1));
  }
  EXPECT_TRUE(all[4].is_punct());

  DataQueueStats s = q.stats();
  EXPECT_EQ(s.tuples_pushed, 4u);
  EXPECT_EQ(s.pages_pushed_whole, 1u);
  // Empty pages are dropped, not enqueued.
  q.PushPage(Page());
  EXPECT_EQ(q.stats().pages_pushed_whole, 1u);
}

// queued_pages() is what the pooled scheduler's output credit reads, so
// it must equal the number of poppable pages after every kind of queue
// operation, on the chain (max_pages 0) and on the ring (64).
class QueuedPages : public ::testing::TestWithParam<int> {
 protected:
  DataQueueOptions Options() const {
    return DataQueueOptions{/*page_size=*/2, /*max_pages=*/GetParam()};
  }
};

size_t PopAll(DataQueue* q) {
  size_t pages = 0;
  while (q->TryPopPage()) ++pages;
  return pages;
}

TEST_P(QueuedPages, CountsExactlyThePoppablePages) {
  DataQueue q(Options());
  EXPECT_EQ(q.queued_pages(), 0u);
  q.PushTuple(T(0, 0));  // the open page is not poppable
  EXPECT_EQ(q.queued_pages(), 0u);
  q.PushTuple(T(1, 0));  // full: page 1
  EXPECT_EQ(q.queued_pages(), 1u);
  q.PushTuple(T(2, 1));
  q.Flush();  // page 2
  EXPECT_EQ(q.queued_pages(), 2u);
  q.Flush();  // nothing open, no page
  EXPECT_EQ(q.queued_pages(), 2u);

  q.PushTuple(T(3, 0));
  Page whole;
  whole.Add(StreamElement::OfTuple(T(4, 1)));
  whole.Add(StreamElement::OfTuple(T(5, 1)));
  q.PushPage(std::move(whole));  // flushes the open page first: 3 and 4
  EXPECT_EQ(q.queued_pages(), 4u);
  q.PushPage(Page());  // dropped
  EXPECT_EQ(q.queued_pages(), 4u);

  ASSERT_TRUE(q.TryPopPage().has_value());  // page 1
  EXPECT_EQ(q.queued_pages(), 3u);

  // Pages 2 ({2}) and 4 ({4, 5}) empty out and are dropped; page 3
  // ({3}) keeps its tuple.
  EXPECT_EQ(q.PurgeMatching(MatchSecondGe(1)), 3);
  EXPECT_EQ(q.queued_pages(), 1u);
  q.PushTuple(T(6, 0));
  q.PushPunctuation(PunctLe(9));  // page 5
  EXPECT_EQ(q.queued_pages(), 2u);
  q.PromoteMatching(MatchSecondGe(0));  // reorders within pages only
  EXPECT_EQ(q.queued_pages(), 2u);

  SnapshotWriter w;
  ASSERT_TRUE(q.SnapshotContents(&w).ok());  // non-destructive
  EXPECT_EQ(q.queued_pages(), 2u);
  DataQueue restored(Options());
  SnapshotReader r(w.buffer());
  ASSERT_TRUE(restored.RestoreContents(&r).ok());
  EXPECT_EQ(restored.queued_pages(), 2u);
  ASSERT_TRUE(restored.TryPopPage().has_value());
  EXPECT_EQ(restored.queued_pages(), 1u);
  EXPECT_EQ(PopAll(&restored), 1u);
  EXPECT_EQ(restored.queued_pages(), 0u);

  q.PushEos();  // page 6
  EXPECT_EQ(q.queued_pages(), 3u);
  EXPECT_EQ(PopAll(&q), 3u);
  EXPECT_EQ(q.queued_pages(), 0u);
  EXPECT_TRUE(q.Drained());
}

TEST_P(QueuedPages, NeverWrapsUnderAConcurrentConsumer) {
  // The producer counts a page before publishing it and the consumer
  // uncounts after popping, so a reader racing both never sees the
  // count dip below zero (it would wrap) or above what is left to pop.
  constexpr size_t kPages = 20000;
  DataQueue q(Options());
  std::thread producer([&] {
    for (size_t i = 0; i < kPages; ++i) {
      q.PushTuple(T(static_cast<int64_t>(i), 0));
      q.Flush();
    }
  });
  size_t popped = 0;
  while (popped < kPages) {
    ASSERT_LE(q.queued_pages(), kPages - popped);
    if (q.TryPopPage()) {
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(q.queued_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Bounds, QueuedPages, ::testing::Values(0, 64),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(info.param > 0 ? "SpscRing" : "SpscChain");
    });

}  // namespace
}  // namespace nstream
