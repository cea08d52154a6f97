// Ablation: inter-operator queue batching (§5). NiagaraST pages tuples
// to limit synchronization and context switches; this bench sweeps the
// page size and shows why punctuation must flush pages (a punctuation
// stuck behind an unfilled page stalls downstream progress).
//
// It also times the two structures a DataQueue's bound picks — the
// unbounded SPSC chain (max_pages 0, the scheduler's edges and the
// default) and the bounded SPSC ring (max_pages 64, the threaded
// executor's) — in an uncontended single-thread mode and, for the
// ring, a 2-thread producer/consumer mode. NOTE on the 2-thread row:
// like the sharded-join numbers, it depends on how many CPUs the host
// exposes (on a 1-core box it measures scheduler churn, not parallel
// transfer), so queue.online_cpus is recorded next to every queue
// metric batch for cross-box comparability.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "bench_json.h"
#include "stream/data_queue.h"
#include "types/tuple.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

Tuple MakeTuple(int64_t i) {
  return TupleBuilder().I64(i).D(static_cast<double>(i)).Build();
}

// The bounded ring for the uncontended mode, which pushes the whole
// batch before popping: the ring must hold every page the batch
// produces (plus the EOS page). Sized exactly: an oversized ring would
// charge its construction to the measured loop.
DataQueueOptions UncontendedRingOptions(int page_size, int batch) {
  return DataQueueOptions{page_size, batch / page_size + 2};
}

// Push `batch` tuples + EOS, then drain — the uncontended shape, where
// the cost is pure per-push/per-pop overhead.
void PushPopOnce(DataQueueOptions opts, int batch) {
  DataQueue q(opts);
  for (int i = 0; i < batch; ++i) q.PushTuple(MakeTuple(i));
  q.PushEos();
  size_t popped = 0;
  while (auto page = q.TryPopPage()) popped += page->size();
  benchmark::DoNotOptimize(popped);
}

// Transfer-only modes: the payload is built once and recycled from
// the popped pages back into the push slots, so the measured cost is
// queue overhead alone (no per-iteration tuple construction, no
// allocator traffic once warm). These compare the ring and the chain
// like for like; the pushpop rows keep their construction-included
// methodology so the cross-PR trajectory in BENCH_hotpath.json stays
// comparable.
//
// Tuple granularity: PushTuple per element (the queue assembles
// pages). Measures the producer-side per-element path.
class TupleTransferBench {
 public:
  explicit TupleTransferBench(int batch) {
    tuples_.reserve(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) tuples_.push_back(MakeTuple(i));
  }

  /// `reps` push-all/pop-all rounds against one queue, so the queue's
  /// construction (ring slot vector, chain segment) amortizes away and the
  /// steady-state transfer cost is what's measured.
  void Run(const DataQueueOptions& opts, int reps) {
    DataQueue q(opts);
    for (int r = 0; r < reps; ++r) {
      for (Tuple& t : tuples_) q.PushTuple(std::move(t));
      q.Flush();
      size_t slot = 0;
      while (auto page = q.TryPopPage()) {
        for (StreamElement& e : page->mutable_elements()) {
          if (e.is_tuple()) {
            tuples_[slot++] = std::move(e.mutable_tuple());
          }
        }
      }
      benchmark::DoNotOptimize(slot);
    }
  }

 private:
  std::vector<Tuple> tuples_;
};

// Page granularity: whole pre-assembled pages via PushPage — how
// Exchange, ShardMerge, and the join's result stream actually feed
// queues. The queue transition (one per page) is the dominant term
// here, so this row shows the structure's own cost undiluted.
class PageTransferBench {
 public:
  PageTransferBench(int batch, int page_size) {
    for (int i = 0; i < batch; i += page_size) {
      Page p;
      p.Reserve(static_cast<size_t>(page_size));
      for (int j = i; j < i + page_size && j < batch; ++j) {
        p.Add(StreamElement::OfTuple(MakeTuple(j)));
      }
      pages_.push_back(std::move(p));
    }
  }

  /// Same amortization story as TupleTransferBench::Run. The queue is
  /// caller-owned so its construction (ring slots, chain segment)
  /// stays outside the timed region entirely — a queue with no EOS
  /// pushed is reusable indefinitely.
  void Run(DataQueue* q, int reps) {
    for (int r = 0; r < reps; ++r) {
      for (Page& p : pages_) q->PushPage(std::move(p));
      size_t slot = 0;
      while (auto page = q->TryPopPage()) {
        pages_[slot++] = std::move(*page);
      }
      benchmark::DoNotOptimize(slot);
    }
  }

 private:
  std::vector<Page> pages_;
};

// Concurrent producer/consumer across two threads with the threaded
// executor's bounded ring (backpressure active); the consumer spins on
// TryPopPage until the queue drains.
void PushPop2ThreadOnce(int page_size, int batch) {
  DataQueue q(DataQueueOptions{page_size, /*max_pages=*/64});
  std::thread producer([&] {
    for (int i = 0; i < batch; ++i) q.PushTuple(MakeTuple(i));
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
  benchmark::DoNotOptimize(popped);
}

void BM_QueuePushPop_PageSize(benchmark::State& state) {
  // The default (unbounded chain) queue across page sizes.
  const int page_size = static_cast<int>(state.range(0));
  const int kBatch = 4096;
  for (auto _ : state) {
    PushPopOnce(DataQueueOptions{page_size, /*max_pages=*/0}, kBatch);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueuePushPop_PageSize)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048);

void BM_QueuePushPop_SpscRing(benchmark::State& state) {
  const int page_size = static_cast<int>(state.range(0));
  const int kBatch = 4096;
  for (auto _ : state) {
    PushPopOnce(UncontendedRingOptions(page_size, kBatch), kBatch);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueuePushPop_SpscRing)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048);

void BM_QueuePushPop_2Thread(benchmark::State& state) {
  const int page_size = static_cast<int>(state.range(0));
  const int kBatch = 4096;
  for (auto _ : state) {
    PushPop2ThreadOnce(page_size, kBatch);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_QueuePushPop_2Thread)->Arg(128)->Arg(512);

void BM_QueuePunctuationFlushRate(benchmark::State& state) {
  // Punctuation every `k` tuples: more punctuation = more (smaller)
  // pages = more queue transitions. Quantifies the batching loss that
  // aggressive punctuation cadence costs.
  const int punct_every = static_cast<int>(state.range(0));
  const int kBatch = 4096;
  uint64_t pages = 0;
  for (auto _ : state) {
    DataQueue q(DataQueueOptions{128, 0});
    for (int i = 0; i < kBatch; ++i) {
      q.PushTuple(MakeTuple(i));
      if (i % punct_every == punct_every - 1) {
        q.PushPunctuation(Punctuation(
            PunctPattern::AllWildcard(2).With(
                0, AttrPattern::Le(Value::Int64(i)))));
      }
    }
    q.PushEos();
    while (auto page = q.TryPopPage()) ++pages;
    benchmark::DoNotOptimize(pages);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel("pages/run=" +
                 std::to_string(pages / std::max<uint64_t>(
                                            1, state.iterations())));
}
BENCHMARK(BM_QueuePunctuationFlushRate)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

void BM_QueuePurgeMatching(benchmark::State& state) {
  // Cost of an exploiting purge sweep over a deep backlog (IMPUTE's
  // response to PACE feedback in Experiment 1).
  const int kBacklog = static_cast<int>(state.range(0));
  PunctPattern old_half = PunctPattern::AllWildcard(2).With(
      0, AttrPattern::Le(Value::Int64(kBacklog / 2)));
  for (auto _ : state) {
    state.PauseTiming();
    DataQueue q(DataQueueOptions{128, 0});
    for (int i = 0; i < kBacklog; ++i) q.PushTuple(MakeTuple(i));
    state.ResumeTiming();
    int purged = q.PurgeMatching(old_half);
    benchmark::DoNotOptimize(purged);
  }
  state.SetItemsProcessed(state.iterations() * kBacklog);
}
BENCHMARK(BM_QueuePurgeMatching)->Arg(1024)->Arg(16384);

void RecordHotpathJson() {
  using benchjson::MeasurePerSec;
  const int kBatch = 4096;
  auto pushpop = [&](int page_size) {
    return MeasurePerSec(kBatch, 150.0, [&] {
      PushPopOnce(DataQueueOptions{page_size, /*max_pages=*/0}, kBatch);
    });
  };
  const int kReps = 256;
  // Best-of-9 for the transfer rows: a single 150ms window on a shared
  // box can eat a scheduler hiccup.
  auto best_of9 = [](auto&& measure) {
    double best = 0;
    for (int i = 0; i < 9; ++i) best = std::max(best, measure());
    return best;
  };
  // The transfer rows run the ring with the threaded executor's actual
  // bound (max_pages=64) so it keeps its backpressure check. 4096
  // tuples / 128 per page = 32 pages in flight, under the bound.
  const DataQueueOptions kRing{/*page_size=*/128, /*max_pages=*/64};
  const DataQueueOptions kChain{/*page_size=*/128, /*max_pages=*/0};
  TupleTransferBench tuple_transfer(kBatch);
  auto tuple_only = [&](const DataQueueOptions& opts) {
    return best_of9([&] {
      return MeasurePerSec(static_cast<double>(kBatch) * kReps, 150.0,
                           [&] { tuple_transfer.Run(opts, kReps); });
    });
  };
  PageTransferBench page_transfer(kBatch, 128);
  auto page_only = [&](const DataQueueOptions& opts) {
    DataQueue q(opts);
    return best_of9([&] {
      return MeasurePerSec(
          static_cast<double>(kBatch) * kReps, 150.0,
          [&] { page_transfer.Run(&q, kReps); });
    });
  };
  const int kBacklog = 16384;
  PunctPattern old_half = PunctPattern::AllWildcard(2).With(
      0, AttrPattern::Le(Value::Int64(kBacklog / 2)));
  double purge = MeasurePerSec(kBacklog, 150.0, [&] {
    DataQueue q(DataQueueOptions{128, 0});
    for (int i = 0; i < kBacklog; ++i) q.PushTuple(MakeTuple(i));
    benchmark::DoNotOptimize(q.PurgeMatching(old_half));
  });

  double pushpop1 = pushpop(1);
  double pushpop128 = pushpop(128);
  double pushpop2048 = pushpop(2048);
  double tuple_ring128 = tuple_only(kRing);
  double page_ring128 = page_only(kRing);
  double ring_2t = MeasurePerSec(kBatch, 300.0, [&] {
    PushPop2ThreadOnce(128, kBatch);
  });
  double page_chain128 = page_only(kChain);
  double tuple_chain128 = tuple_only(kChain);

  // Arena A/B: construct-transfer-consume per tuple. The producer
  // builds each 3-value tuple (two numerics + a short string) in the
  // queue's open-page arena — or, in the frozen owned reference, in
  // heap storage (a null arena) — and the consumer drops whole pages
  // (wholesale arena free vs per-tuple destruction). This is the
  // page-owned memory model's per-tuple cost, isolated from any
  // operator logic.
  auto build_cycle = [&](bool arenas_on) {
    const int reps = 16;
    return best_of9([&] {
      return MeasurePerSec(
          static_cast<double>(kBatch) * reps, 150.0, [&] {
            DataQueue q(kChain);
            for (int r = 0; r < reps; ++r) {
              for (int i = 0; i < kBatch; ++i) {
                TupleArena* arena = arenas_on ? q.OpenPageArena() : nullptr;
                Tuple t(arena, 3);
                t.Append(Value::Int64(i));
                t.Append(Value::Double(static_cast<double>(i)));
                t.Append(Value::StringIn(arena, "seg-42"));
                q.PushTuple(std::move(t));
              }
              q.Flush();
              size_t popped = 0;
              while (auto page = q.TryPopPage()) popped += page->size();
              benchmark::DoNotOptimize(popped);
            }
          });
    });
  };
  double arena_build = build_cycle(true);
  double noarena_build = build_cycle(false);

  benchjson::RecordAll({
      // The default (chain) queue, construction included.
      {"queue.pushpop_page1_tuples_per_sec", pushpop1},
      {"queue.pushpop_page128_tuples_per_sec", pushpop128},
      {"queue.pushpop_page2048_tuples_per_sec", pushpop2048},
      {"queue.purge_16k_tuples_per_sec", purge},
      // Bounded ring (the threaded executor's edges): per-tuple
      // transfer (the queue assembles the pages), whole-page transfer
      // (the engine's page-granular flow) and two threads.
      {"queue.tuple_transfer_spsc_page128_tuples_per_sec",
       tuple_ring128},
      {"queue.spsc_pushpop_page128_tuples_per_sec", page_ring128},
      {"queue.spsc_pushpop_2thread_page128_tuples_per_sec", ring_2t},
      // Unbounded chain (the scheduler's edges).
      {"queue.chain_pushpop_page128_tuples_per_sec", page_chain128},
      {"queue.chain_tuple_transfer_page128_tuples_per_sec",
       tuple_chain128},
      // Arena-backed tuple memory: build + transfer + consume.
      {"queue.arena_build_transfer_tuples_per_sec", arena_build},
      {"queue.noarena_build_transfer_tuples_per_sec", noarena_build},
      {"queue.arena_build_speedup", arena_build / noarena_build},
      {"queue.online_cpus",
       static_cast<double>(std::thread::hardware_concurrency())},
  });
}

}  // namespace
}  // namespace nstream

int main(int argc, char** argv) {
  nstream::RecordHotpathJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
