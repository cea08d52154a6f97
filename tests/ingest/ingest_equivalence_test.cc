// Randomized wire ↔ VectorSource equivalence: the same tuples pushed
// through the ingest front-end (encode → tagged frames → conduit →
// IngestSource) and through the in-process VectorSource must reach the
// sink as identical multisets, under sync + pooled executors × arenas
// on/off × columnar on/off. Also covers feedback exploitation/relay at
// the edge and the executor-idle path (frames arriving while the
// pooled source is parked).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ingest_test_util.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::EncodeIngestStream;
using testing_util::FB;
using testing_util::IngestSchema;
using testing_util::kTestProducer;
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
      for (bool arenas : {false, true}) {
        for (bool columnar : {false, true}) {
          SCOPED_TRACE("pooled=" + std::to_string(pooled) +
                       " arenas=" + std::to_string(arenas) +
                       " columnar=" + std::to_string(columnar));
          ScopedTupleArenasEnabled a(arenas);
          ScopedPageColumnarEnabled c(columnar);
          auto conduit = PrefilledConduit(stream);
          auto p = MakeIngestPlan(conduit.get());
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
// parse time, on both row and columnar paths, and expires when covered
// by embedded punctuation.
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

  for (bool columnar : {false, true}) {
    SCOPED_TRACE("columnar=" + std::to_string(columnar));
    ScopedTupleArenasEnabled a(true);
    ScopedPageColumnarEnabled c(columnar);
    auto conduit = PrefilledConduit(stream);
    auto p = MakeIngestPlan(conduit.get());
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
    // The covered low-range guard expired at the punctuation.
    EXPECT_EQ(p.source->admission_guards().size(), 1);
  }
}

}  // namespace
}  // namespace nstream
