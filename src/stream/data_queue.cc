#include "stream/data_queue.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "punct/compiled_pattern.h"
#include "recovery/snapshot.h"

namespace nstream {

namespace {
// Thread-local task token + process-wide fatality switch for the
// consumer-affinity tripwire (see header).
thread_local uint64_t t_consumer_token = 0;
std::atomic<bool> g_affinity_violations_fatal{true};

// Segment size of the unbounded chain, in pages. It bounds how often
// the producer allocates a segment, not how many pages are queued.
constexpr size_t kChainSegmentPages = 16;
}  // namespace

void DataQueue::SetThreadConsumerToken(uint64_t token) {
  t_consumer_token = token;
}

uint64_t DataQueue::ThreadConsumerToken() { return t_consumer_token; }

void DataQueue::SetAffinityViolationsFatal(bool fatal) {
  g_affinity_violations_fatal.store(fatal, std::memory_order_relaxed);
}

void DataQueue::CheckConsumerAffinity() const {
  uint64_t expected = expected_consumer_.load(std::memory_order_relaxed);
  if (expected == 0 || expected == t_consumer_token) return;
  affinity_violations_.fetch_add(1, std::memory_order_relaxed);
  if (g_affinity_violations_fatal.load(std::memory_order_relaxed)) {
    assert(false &&
           "DataQueue consumer-affinity violated: consumer-side call "
           "from a task other than the pinned consumer");
  }
}

DataQueue::DataQueue(DataQueueOptions options) : options_(options) {
  if (options_.page_size <= 0) options_.page_size = 1;
  open_page_.Reserve(static_cast<size_t>(options_.page_size) + 1);
  if (options_.max_pages > 0) {
    ring_ = std::make_unique<SpscRing<Page>>(
        static_cast<size_t>(options_.max_pages));
  } else {
    chain_ = std::make_unique<SpscChain<Page>>(kChainSegmentPages);
  }
}

TupleArena* DataQueue::OpenPageArena() {
  // The open page is producer-local, so its arena is safe to hand to
  // the (producer-side) caller.
  return open_page_.arena();
}

void DataQueue::CountFlush(FlushReason reason) {
  switch (reason) {
    case FlushReason::kPageFull:
      Inc(stats_.pages_flushed_full);
      break;
    case FlushReason::kPunctuation:
      Inc(stats_.pages_flushed_punct);
      break;
    case FlushReason::kEndOfStream:
      Inc(stats_.pages_flushed_eos);
      break;
    case FlushReason::kExplicit:
      Inc(stats_.pages_flushed_explicit);
      break;
  }
}

// ---- Producer side ----

void DataQueue::Publish(Page&& page) {
  // Counted before it is published: the consumer uncounts after its
  // pop, so the count can never dip below what is poppable.
  queued_pages_.fetch_add(1, std::memory_order_relaxed);
  if (chain_ != nullptr) {
    // The chain is unbounded: no backpressure, no wait.
    chain_->Push(std::move(page));
  } else {
    while (!ring_->TryPush(std::move(page))) {
      // Ring full: backpressure. The consumer pops lock-free and only
      // signals when it knows a producer is parked, so park with a
      // short timed re-check — the same timed-wait idiom as the
      // executors' wake objects; a missed notify costs bounded
      // latency, never correctness.
      std::unique_lock<std::mutex> lock(mu_);
      producer_waiting_.store(true, std::memory_order_relaxed);
      not_full_.wait_for(lock, std::chrono::milliseconds(1));
      producer_waiting_.store(false, std::memory_order_relaxed);
    }
  }
  NotifyConsumer();
}

void DataQueue::FlushOpenPage(FlushReason reason) {
  if (open_page_.empty()) return;
  open_page_.set_flush_reason(reason);
  CountFlush(reason);
  Publish(std::move(open_page_));
  open_page_ = Page();
  open_page_.Reserve(static_cast<size_t>(options_.page_size) + 1);
}

void DataQueue::PushTuple(Tuple t) {
  // Producer-thread-local: no lock, no atomic RMW. The publish (and
  // its notify) is paid once per page, not per tuple. AddTuple re-homes
  // a tuple still backed by another page's arena (a filter forwarding
  // upstream-arena tuples element-wise) into this open page's arena —
  // a bump-copy, never a heap allocation.
  open_page_.AddTuple(std::move(t));
  stats_.tuples_pushed.store(++spsc_tuples_pushed_,
                             std::memory_order_relaxed);
  if (static_cast<int>(open_page_.size()) >= options_.page_size) {
    FlushOpenPage(FlushReason::kPageFull);
  }
}

void DataQueue::PushPunctuation(Punctuation p) {
  open_page_.Add(StreamElement::OfPunct(std::move(p)));
  Inc(stats_.puncts_pushed);  // rare: one per punctuation, not per tuple
  // Punctuation flushes the page: a slow stream must not strand
  // progress information behind an unfilled page (§5).
  FlushOpenPage(FlushReason::kPunctuation);
}

void DataQueue::PushEos() {
  open_page_.Add(StreamElement::Eos());
  // Publishing the EOS page notifies the consumer, which learns of EOS
  // from the page itself.
  FlushOpenPage(FlushReason::kEndOfStream);
  // Set after the final page is published: a reader that observes
  // eos_pushed_ (acquire) therefore also observes that page's count.
  eos_pushed_.store(true, std::memory_order_release);
}

void DataQueue::PushPage(Page&& page) {
  if (page.empty()) return;
#ifndef NDEBUG
  if (page.is_columnar()) {
    // Columnar pages are tuples-only by construction; the block-level
    // check covers the arena side: block arrays in the page's own
    // arena, no owning values behind the wholesale free.
    assert(page.columnar()->ArenaInvariantHolds(page.arena_if_created()));
  } else {
    for (const StreamElement& e : page.elements()) {
      assert(e.is_tuple());
      // Arena ownership invariant: every arena-backed tuple in the
      // page references the page's own arena (and holds nothing the
      // wholesale arena free would leak). A violation means some
      // operator moved a tuple between pages without Rehome/Promote.
      assert(page.ElementArenaInvariantHolds(e));
    }
  }
#endif
  // Preserve order: anything staged tuple-at-a-time goes first (the
  // empty check stays inline — page-granular producers rarely have an
  // open per-tuple page).
  if (!open_page_.empty()) FlushOpenPage(FlushReason::kExplicit);
  spsc_tuples_pushed_ += page.size();
  stats_.tuples_pushed.store(spsc_tuples_pushed_,
                             std::memory_order_relaxed);
  stats_.pages_pushed_whole.store(++spsc_pages_whole_,
                                  std::memory_order_relaxed);
  page.set_flush_reason(FlushReason::kExplicit);
  Publish(std::move(page));
}

void DataQueue::Flush() { FlushOpenPage(FlushReason::kExplicit); }

// ---- Consumer side ----

std::optional<Page> DataQueue::TryPopPage() {
  CheckConsumerAffinity();
  // Pages staged by surgery or a restore are older than anything in
  // the ring or chain and must leave first. side_count_ keeps the
  // nothing-staged fast path lock-free.
  if (side_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!side_pages_.empty()) {
      Page out = std::move(side_pages_.front());
      side_pages_.pop_front();
      side_count_.store(side_pages_.size(), std::memory_order_release);
      stats_.pages_popped.store(++spsc_pages_popped_,
                                std::memory_order_relaxed);
      queued_pages_.fetch_sub(1, std::memory_order_relaxed);
      return out;
    }
  }
  std::optional<Page> out =
      chain_ != nullptr ? chain_->TryPop() : ring_->TryPop();
  if (out.has_value()) {
    stats_.pages_popped.store(++spsc_pages_popped_,
                              std::memory_order_relaxed);
    queued_pages_.fetch_sub(1, std::memory_order_relaxed);
    if (producer_waiting_.load(std::memory_order_relaxed)) {
      not_full_.notify_one();
    }
  }
  return out;
}

// ---- Feedback-exploit surgery ----

void DataQueue::DrainToSideLocked() {
  while (std::optional<Page> p =
             chain_ != nullptr ? chain_->TryPop() : ring_->TryPop()) {
    side_pages_.push_back(std::move(*p));
  }
  // A producer parked on a full ring can go on now.
  if (producer_waiting_.load(std::memory_order_relaxed)) {
    not_full_.notify_one();
  }
}

int DataQueue::PurgeMatching(const PunctPattern& pattern) {
  CheckConsumerAffinity();
  // Compile once (shared across relay hops exploiting the same
  // pattern), then a single in-place erase-remove pass per page — no
  // per-element re-interpretation, no rebuilt element vectors.
  std::shared_ptr<const CompiledPattern> compiled_ptr =
      CompiledPatternCache::Global().Get(pattern);
  const CompiledPattern& compiled = *compiled_ptr;
  int removed = 0;
  auto purge_page = [&](Page* page) {
    if (page->is_columnar()) {
      // Selection-vector edit, hoisted type dispatch — no compaction.
      removed += compiled.FilterColumnarPurge(page->columnar());
      return;
    }
    std::vector<StreamElement>& elems = page->mutable_elements();
    auto it = std::remove_if(
        elems.begin(), elems.end(), [&](const StreamElement& e) {
          return e.is_tuple() && compiled.Matches(e.tuple());
        });
    removed += static_cast<int>(elems.end() - it);
    elems.erase(it, elems.end());
  };
  // Consumer-side slow path: pull every published page out of the
  // ring or chain into the staging deque (order preserved; pops serve
  // the deque first) and purge there. The producer's open page stays
  // untouched — see the header contract.
  std::lock_guard<std::mutex> lock(mu_);
  DrainToSideLocked();
  for (Page& p : side_pages_) purge_page(&p);
  // Drop pages emptied by the purge so consumers don't spin on them.
  auto kept = std::remove_if(side_pages_.begin(), side_pages_.end(),
                             [](const Page& p) { return p.empty(); });
  queued_pages_.fetch_sub(static_cast<size_t>(side_pages_.end() - kept),
                          std::memory_order_relaxed);
  side_pages_.erase(kept, side_pages_.end());
  side_count_.store(side_pages_.size(), std::memory_order_release);
  return removed;
}

int DataQueue::PromoteMatching(const PunctPattern& pattern) {
  CheckConsumerAffinity();
  std::shared_ptr<const CompiledPattern> compiled_ptr =
      CompiledPatternCache::Global().Get(pattern);
  const CompiledPattern& compiled = *compiled_ptr;
  int moved = 0;
  // A punctuation flushes its page, so it can only be a page's last
  // element; partitioning within a page therefore never moves a tuple
  // across a punctuation. std::stable_partition keeps relative order
  // on both sides and works in place.
  auto promote_page = [&](Page* page) {
    if (page->is_columnar()) {
      // Stable-partition the selection vector; rows never move.
      ColumnarBlock* b = page->columnar();
      moved += b->PartitionSelection(
          [&](uint32_t r) { return compiled.MatchesRow(*b, r); });
      return;
    }
    std::vector<StreamElement>& elems = page->mutable_elements();
    auto mid = std::stable_partition(
        elems.begin(), elems.end(), [&](const StreamElement& e) {
          return e.is_tuple() && compiled.Matches(e.tuple());
        });
    // Count tuples that actually jumped ahead of a non-matching one.
    if (mid != elems.begin() && mid != elems.end()) {
      moved += static_cast<int>(mid - elems.begin());
    }
  };
  std::lock_guard<std::mutex> lock(mu_);
  DrainToSideLocked();
  for (Page& p : side_pages_) promote_page(&p);
  side_count_.store(side_pages_.size(), std::memory_order_release);
  return moved;
}

// ---- Checkpointing ----

Status DataQueue::SnapshotContents(SnapshotWriter* w) {
  std::lock_guard<std::mutex> lock(mu_);
  // Move everything published into the staging deque so it can be
  // walked under mu_; later pops serve the deque first, so nothing is
  // lost or reordered.
  DrainToSideLocked();
  side_count_.store(side_pages_.size(), std::memory_order_release);
  uint32_t count = static_cast<uint32_t>(side_pages_.size());
  if (!open_page_.empty()) ++count;
  w->WriteU32(count);
  for (Page& p : side_pages_) WritePageElements(w, p);
  // The open page is producer-local, but the quiesced contract (both
  // endpoints parked at the barrier) makes reading it race-free. At
  // full alignment it is empty anyway — the barrier punctuation
  // flushed it — so this only fires for an edge that a single-threaded
  // caller pushed into mid-page and then checkpointed directly.
  if (!open_page_.empty()) WritePageElements(w, open_page_);
  return Status::OK();
}

Status DataQueue::RestoreContents(SnapshotReader* r) {
  uint32_t count = 0;
  NSTREAM_RETURN_NOT_OK(r->ReadU32(&count));
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) {
    Page p;
    NSTREAM_RETURN_NOT_OK(ReadPageInto(r, &p));
    if (p.empty()) continue;
    p.set_flush_reason(FlushReason::kExplicit);
    side_pages_.push_back(std::move(p));
    queued_pages_.fetch_add(1, std::memory_order_relaxed);
  }
  side_count_.store(side_pages_.size(), std::memory_order_release);
  return Status::OK();
}

// ---- Introspection ----

bool DataQueue::Drained() const {
  // eos_pushed_ is set (release) after the final page was counted, so
  // observing it means the open page is empty and every page left is
  // in the count.
  return eos_pushed_.load(std::memory_order_acquire) && queued_pages() == 0;
}

bool DataQueue::HasPage() const { return queued_pages() > 0; }

DataQueueStats DataQueue::stats() const {
  DataQueueStats out;
  out.tuples_pushed = stats_.tuples_pushed.load(std::memory_order_relaxed);
  out.puncts_pushed = stats_.puncts_pushed.load(std::memory_order_relaxed);
  out.pages_flushed_full =
      stats_.pages_flushed_full.load(std::memory_order_relaxed);
  out.pages_flushed_punct =
      stats_.pages_flushed_punct.load(std::memory_order_relaxed);
  out.pages_flushed_eos =
      stats_.pages_flushed_eos.load(std::memory_order_relaxed);
  out.pages_flushed_explicit =
      stats_.pages_flushed_explicit.load(std::memory_order_relaxed);
  out.pages_pushed_whole =
      stats_.pages_pushed_whole.load(std::memory_order_relaxed);
  out.pages_popped = stats_.pages_popped.load(std::memory_order_relaxed);
  return out;
}

void DataQueue::SetConsumerNotifier(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  notifier_storage_.push_back(
      std::make_unique<std::function<void()>>(std::move(fn)));
  consumer_notifier_.store(notifier_storage_.back().get(),
                           std::memory_order_release);
}

void DataQueue::NotifyConsumer() {
  const std::function<void()>* fn =
      consumer_notifier_.load(std::memory_order_acquire);
  if (fn != nullptr && *fn) (*fn)();
}

}  // namespace nstream
