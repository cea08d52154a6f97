// Randomized wire ↔ VectorSource equivalence: the same tuples pushed
// through the ingest front-end (encode → tagged frames → conduit →
// IngestSource) and through the in-process VectorSource must reach the
// sink as identical multisets, under the sync and pooled executors.
// Also covers feedback exploitation/relay at
// the edge, the executor-idle path (frames arriving while the pooled
// source is parked), and punctuation combined across producers: a
// claim reaches the plan only once every producer of the closed set
// has made it.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ingest_test_util.h"
#include "ops/window_aggregate.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::CheckedPlan;
using testing_util::EncodeIngestStream;
using testing_util::FB;
using testing_util::IngestSchema;
using testing_util::kTestProducer;
using testing_util::MakeCheckedPlan;
using testing_util::MakeIngestPlan;
using testing_util::PrefilledConduit;
using testing_util::RandomIngestTuples;
using testing_util::SplitFrames;
using testing_util::TupleStrings;

TEST(IngestEquivalence, WireMatchesVectorSourceAcrossConfigs) {
  const int kN = 200;
  for (uint64_t seed : {3u, 17u, 88u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::vector<Tuple> tuples = RandomIngestTuples(kN, seed);

    // Reference: the same tuples through VectorSource, sync.
    std::multiset<std::string> expect;
    {
      testing_util::LinearPlan ref(IngestSchema(), AtMillis(tuples));
      ref.Finish();
      ASSERT_TRUE(ref.RunSync().ok());
      expect = TupleStrings(ref.sink()->collected());
    }
    ASSERT_EQ(expect.size(), static_cast<size_t>(kN));
    EXPECT_EQ(expect, TupleStrings(tuples));

    const std::string stream = EncodeIngestStream(
        tuples, /*batch_size=*/7, /*punct_every=*/49);

    for (bool pooled : {false, true}) {
      SCOPED_TRACE("pooled=" + std::to_string(pooled));
      auto conduit = PrefilledConduit(stream);
      IngestSourceOptions sopts;
      sopts.expected_eos_producers = 1;  // forwards its punctuation
      auto p = MakeIngestPlan(conduit.get(), sopts);
      Status st;
      if (pooled) {
        PooledExecutorOptions opts;
        opts.pool_size = 2;
        PooledExecutor exec(opts);
        Result<QueryId> id = exec.Submit(p.plan.get());
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        st = exec.Wait(id.value());
      } else {
        SyncExecutor exec;
        st = exec.Run(p.plan.get());
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(TupleStrings(p.sink->collected()), expect);
      EXPECT_EQ(p.source->admitted_frames(),
                // hello + ceil(200/7) batches + 4 puncts + eos
                1u + (kN + 6) / 7 + 4u + 1u);
      EXPECT_GT(p.sink->stats().puncts_in, 0u);
    }
  }
}

// Frames trickle in from a producer thread while the pooled source
// parks idle between them: the wake-notifier path, not just the
// pre-filled fast case.
TEST(IngestEquivalence, PooledLiveFeedWithIdleSource) {
  const int kN = 120;
  std::vector<Tuple> tuples = RandomIngestTuples(kN, 5);
  const std::vector<std::string> frames =
      SplitFrames(EncodeIngestStream(tuples, 5));

  FrameConduitOptions copts;
  copts.mux_budget_bytes = 256;  // a small budget: producer hits backpressure
  FrameConduit conduit(copts);
  auto p = MakeIngestPlan(&conduit);

  PooledExecutorOptions opts;
  opts.pool_size = 2;
  PooledExecutor exec(opts);
  Result<QueryId> id = exec.Submit(p.plan.get());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  std::thread producer([&] {
    ConduitClient client(&conduit, kTestProducer);
    for (const std::string& f : frames) {
      // Retry while the budget is full.
      while (client.SendRaw(f).code() == StatusCode::kResourceExhausted) {
        std::this_thread::yield();
      }
    }
    client.CloseWrite();
  });
  Status st = exec.Wait(id.value());
  producer.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(TupleStrings(p.sink->collected()), TupleStrings(tuples));
}

// ---------------------------------------------------------------------------
// Feedback at the edge
// ---------------------------------------------------------------------------

// Unit-level: ProcessFeedback installs an admission guard (assumed)
// and relays EVERY intent to the producer as a feedback frame.
TEST(IngestFeedback, ExploitsAssumedAndRelaysToProducer) {
  FrameConduit conduit;
  IngestSource src("ingest", IngestSchema(), &conduit);
  ConduitClient client(&conduit, kTestProducer);

  FeedbackPunctuation assumed = FB("~[*,*,>=500]");
  assumed.set_origin_op(9);
  ASSERT_TRUE(src.ProcessFeedback(0, assumed).ok());
  EXPECT_EQ(src.admission_guards().size(), 1);

  FeedbackPunctuation desired = FB("?[<=10,*,*]");
  ASSERT_TRUE(src.ProcessFeedback(0, desired).ok());
  EXPECT_EQ(src.admission_guards().size(), 1);  // desired installs none

  Result<std::optional<FeedbackPunctuation>> f1 = client.PollFeedback();
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  ASSERT_TRUE(f1.value().has_value());
  EXPECT_TRUE(f1.value()->EquivalentTo(assumed));
  EXPECT_EQ(f1.value()->origin_op(), 9);
  Result<std::optional<FeedbackPunctuation>> f2 = client.PollFeedback();
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f2.value().has_value());
  EXPECT_TRUE(f2.value()->EquivalentTo(desired));
  EXPECT_EQ(src.stats().feedback_propagated, 2u);
}

// End-to-end: a pre-installed admission guard drops matching tuples at
// parse time, testing each columnar row in place, and expires when
// covered by embedded punctuation.
TEST(IngestFeedback, AdmissionGuardDropsAtParseTime) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 40; ++i) {
    tuples.push_back(
        TupleBuilder().I64(i).S("v" + std::to_string(i)).I64(i * 10).Build());
  }
  std::string stream;
  AppendHelloFrame(&stream, 3, kTestProducer, 0);
  AppendTupleBatchFrame(&stream, tuples.data(), 20);
  // Covering punctuation: "no more tuples with b <= 1000 ever" — the
  // guard below (b >= 200 is assumed-unwanted) is NOT covered by it,
  // but a second guard on the low range is.
  AppendPunctuationFrame(&stream, Punctuation(testing_util::P(
                                      "[*,*,<=100]")));
  AppendTupleBatchFrame(&stream, tuples.data() + 20, 20);
  AppendEosFrame(&stream);

  auto conduit = PrefilledConduit(stream);
  IngestSourceOptions sopts;
  sopts.expected_eos_producers = 1;  // its punctuation expires guards
  auto p = MakeIngestPlan(conduit.get(), sopts);
  // Install guards before the run (as if feedback arrived earlier):
  // drop b >= 200, and a low-range guard the punctuation will expire.
  ASSERT_TRUE(p.source->ProcessFeedback(0, FB("~[*,*,>=200]")).ok());
  ASSERT_TRUE(p.source->ProcessFeedback(0, FB("~[*,*,<=50]")).ok());
  ASSERT_EQ(p.source->admission_guards().size(), 2);
  SyncExecutor exec;
  Status st = exec.Run(p.plan.get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Survivors: b in {60..190} = i in {6..19} from batch 1; batch 2
  // (i >= 20 → b >= 200) is fully dropped.
  EXPECT_EQ(p.sink->consumed(), 14u);
  EXPECT_EQ(p.source->stats().input_guard_drops, 26u);
  EXPECT_EQ(p.source->admission_guards().total_blocked(), 26u);
  // The covered low-range guard expired at the punctuation.
  EXPECT_EQ(p.source->admission_guards().size(), 1);
}

// ---------------------------------------------------------------------------
// Punctuation combined across producers
// ---------------------------------------------------------------------------

Tuple Row(int64_t a, int64_t b) {
  return TupleBuilder().I64(a).S("r" + std::to_string(b)).I64(b).Build();
}

Punctuation Claim(std::string_view pattern) {
  return Punctuation(testing_util::P(pattern));
}

TEST(IngestSourceCombine, ClaimWaitsForEveryProducer) {
  FrameConduit conduit;
  ConduitClient one(&conduit, 1);
  ConduitClient two(&conduit, 2);
  ASSERT_TRUE(one.Hello(3).ok());
  ASSERT_TRUE(two.Hello(3).ok());
  ASSERT_TRUE(one.SendBatch({Row(1, 1), Row(1, 2)}).ok());
  ASSERT_TRUE(one.SendPunctuation(Claim("[*,*,<=10]")).ok());
  // Producer 2 has made no claim yet: its b = 5 is still legal.
  ASSERT_TRUE(two.SendBatch({Row(2, 5)}).ok());
  ASSERT_TRUE(two.SendPunctuation(Claim("[*,*,<=10]")).ok());
  ASSERT_TRUE(one.SendEos().ok());
  ASSERT_TRUE(two.SendEos().ok());
  conduit.CloseWrite();

  CheckedPlan p = MakeCheckedPlan(&conduit, 2);
  SyncExecutor exec;
  Status st = exec.Run(p.plan.get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(p.sink->tuples, 3u);
  ASSERT_EQ(p.sink->puncts.size(), 1u);
  EXPECT_EQ(p.sink->puncts[0].pattern(), testing_util::P("[*,*,<=10]"));
}

// Producer p's rows of window w (tumbling, 10 wide on b).
std::vector<Tuple> WindowRows(int64_t producer, int64_t w) {
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 5; ++i) {
    rows.push_back(Row((i + producer) % 3, 10 * w + (2 * i + producer) % 10));
  }
  return rows;
}

std::multiset<std::string> CountPerWindow(FrameConduit* conduit,
                                          int producers, bool pooled) {
  QueryPlan plan;
  IngestSourceOptions opts;
  opts.expected_eos_producers = producers;
  auto* source = plan.AddOp(std::make_unique<IngestSource>(
      "ingest", IngestSchema(), conduit, opts));
  WindowAggregateOptions wo;
  wo.ts_attr = 2;
  wo.group_attrs = {0};
  wo.kind = AggKind::kCount;
  wo.window = WindowSpec{10, 10};
  auto* agg = plan.AddOp(std::make_unique<WindowAggregate>("agg", wo));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*source, *agg).ok());
  EXPECT_TRUE(plan.Connect(*agg, *sink).ok());
  Status st;
  if (pooled) {
    PooledExecutorOptions eopts;
    eopts.pool_size = 2;
    PooledExecutor exec(eopts);
    Result<QueryId> id = exec.Submit(&plan);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (id.ok()) st = exec.Wait(id.value());
  } else {
    SyncExecutor exec;
    st = exec.Run(&plan);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Every window closed on a punctuation, none at EOS.
  EXPECT_EQ(agg->stats().puncts_in, 6u);
  return TupleStrings(sink->collected());
}

TEST(IngestSourceCombine, TwoProducersCloseWindowsLikeOne) {
  constexpr int64_t kWindows = 6;
  auto close = [](int64_t w) {
    return Claim("[*,*,<=" + std::to_string(10 * w + 9) + "]");
  };
  for (bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pooled" : "sync");
    // One producer sends both halves of each window, then closes it.
    FrameConduit single;
    ConduitClient only(&single, 1);
    ASSERT_TRUE(only.Hello(3).ok());
    for (int64_t w = 0; w < kWindows; ++w) {
      ASSERT_TRUE(only.SendBatch(WindowRows(1, w)).ok());
      ASSERT_TRUE(only.SendBatch(WindowRows(2, w)).ok());
      ASSERT_TRUE(only.SendPunctuation(close(w)).ok());
    }
    ASSERT_TRUE(only.SendEos().ok());
    single.CloseWrite();
    const std::multiset<std::string> expect =
        CountPerWindow(&single, 1, pooled);
    ASSERT_EQ(expect.size(), 3u * kWindows);

    // Two producers send the same halves, producer 2 a window behind.
    FrameConduit pair;
    ConduitClient one(&pair, 1);
    ConduitClient two(&pair, 2);
    ASSERT_TRUE(one.Hello(3).ok());
    ASSERT_TRUE(two.Hello(3).ok());
    for (int64_t w = 0; w <= kWindows; ++w) {
      if (w < kWindows) {
        ASSERT_TRUE(one.SendBatch(WindowRows(1, w)).ok());
        ASSERT_TRUE(one.SendPunctuation(close(w)).ok());
      }
      if (w > 0) {
        ASSERT_TRUE(two.SendBatch(WindowRows(2, w - 1)).ok());
        ASSERT_TRUE(two.SendPunctuation(close(w - 1)).ok());
      }
    }
    ASSERT_TRUE(one.SendEos().ok());
    ASSERT_TRUE(two.SendEos().ok());
    pair.CloseWrite();
    EXPECT_EQ(CountPerWindow(&pair, 2, pooled), expect);
  }
}

TEST(IngestSourceCombine, ProducerBeyondTheExpectedCountIsQuarantined) {
  FrameConduit conduit;
  ConduitClient one(&conduit, 1);
  ConduitClient two(&conduit, 2);
  ASSERT_TRUE(one.Hello(3).ok());
  ASSERT_TRUE(two.Hello(3).ok());
  ASSERT_TRUE(two.SendBatch({Row(2, 1)}).ok());
  ASSERT_TRUE(one.SendBatch({Row(1, 1), Row(1, 2)}).ok());
  ASSERT_TRUE(one.SendPunctuation(Claim("[*,*,<=10]")).ok());
  ASSERT_TRUE(one.SendEos().ok());
  conduit.CloseWrite();

  CheckedPlan p = MakeCheckedPlan(&conduit, 1);
  SyncExecutor exec;
  Status st = exec.Run(p.plan.get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(p.source->quarantined_producers(), 1u);
  EXPECT_EQ(p.source->quarantined_frames(), 1u);
  EXPECT_EQ(p.sink->tuples, 2u);
  ASSERT_EQ(p.sink->puncts.size(), 1u);
  Result<std::optional<FeedbackPunctuation>> fb = two.PollFeedback();
  ASSERT_FALSE(fb.ok()) << "no kError reached producer 2";
  EXPECT_NE(fb.status().message().find("beyond the expected"),
            std::string::npos)
      << fb.status().ToString();
}

TEST(IngestSourceCombine, QuarantinedProducerDoesNotStallTheWatermark) {
  FrameConduit conduit;
  ConduitClient one(&conduit, 1);
  ConduitClient two(&conduit, 2);
  ASSERT_TRUE(one.Hello(3).ok());
  ASSERT_TRUE(two.Hello(3).ok());
  ASSERT_TRUE(one.SendBatch({Row(1, 1)}).ok());
  ASSERT_TRUE(one.SendPunctuation(Claim("[*,*,<=10]")).ok());
  // An engine-direction frame: producer 2 is quarantined, and its port
  // no longer holds the watermark back.
  std::string bad;
  AppendFeedbackFrame(&bad, FB("~[*,*,>=5]"));
  ASSERT_TRUE(two.SendRaw(bad).ok());
  ASSERT_TRUE(one.SendPunctuation(Claim("[*,*,<=20]")).ok());
  ASSERT_TRUE(one.SendBatch({Row(1, 21)}).ok());
  ASSERT_TRUE(one.SendEos().ok());
  conduit.CloseWrite();

  CheckedPlan p = MakeCheckedPlan(&conduit, 2);
  SyncExecutor exec;
  Status st = exec.Run(p.plan.get());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(p.source->quarantined_producers(), 1u);
  EXPECT_EQ(p.sink->tuples, 2u);
  ASSERT_EQ(p.sink->puncts.size(), 2u);
  EXPECT_EQ(p.sink->puncts[0].pattern(), testing_util::P("[*,*,<=10]"));
  EXPECT_EQ(p.sink->puncts[1].pattern(), testing_util::P("[*,*,<=20]"));
}

}  // namespace
}  // namespace nstream
