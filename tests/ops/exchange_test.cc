// Exchange / ShardMerge / MakePartitionedJoin coverage: deterministic
// collision-safe routing, punctuation broadcast and coalescing (no
// early and no duplicate emission at the merge), feedback relayed
// through the partition boundary purging every shard, and randomized
// result-equivalence of the 4-shard topology against the 1-shard
// baseline under both the sync and threaded executors.

#include "ops/exchange.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "recovery/snapshot.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::FB;
using testing_util::P;

SchemaPtr KeyTsPayloadSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kInt64}});
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ExchangeRouting, DeterministicAndKeyPure) {
  std::vector<int> keys = {0};
  for (int64_t k = 0; k < 1000; ++k) {
    // Same key, different payload/timestamp → same hash: routing must
    // depend on the partition keys alone, or join partners separate.
    Tuple a = TupleBuilder().I64(k).Ts(11).I64(7).Build();
    Tuple b = TupleBuilder().I64(k).Ts(9999).I64(-3).Build();
    EXPECT_EQ(Exchange::RoutingHash(a, keys),
              Exchange::RoutingHash(b, keys));
    // And repeated evaluation is stable.
    EXPECT_EQ(Exchange::RoutingHash(a, keys),
              Exchange::RoutingHash(a, keys));
  }
}

TEST(ExchangeRouting, AllShardsPopulatedAndInRange) {
  std::vector<int> keys = {0};
  for (int shards : {2, 3, 4, 8}) {
    std::vector<int> hits(static_cast<size_t>(shards), 0);
    for (int64_t k = 0; k < 4096; ++k) {
      Tuple t = TupleBuilder().I64(k).Ts(0).I64(0).Build();
      int s = Exchange::ShardOfHash(Exchange::RoutingHash(t, keys),
                                    shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      ++hits[static_cast<size_t>(s)];
    }
    for (int s = 0; s < shards; ++s) {
      // With 4096 uniform keys a starving shard means a broken prefix.
      EXPECT_GT(hits[static_cast<size_t>(s)], 4096 / shards / 4)
          << "shard " << s << " of " << shards << " underpopulated";
    }
  }
}

// ---------------------------------------------------------------------------
// Unit harness: drive an operator directly, recording its emissions.
// ---------------------------------------------------------------------------

class RecordingContext final : public ExecContext {
 public:
  void EmitTuple(int out_port, Tuple t) override {
    tuples[out_port].push_back(std::move(t));
  }
  void EmitPunct(int out_port, Punctuation p) override {
    puncts[out_port].push_back(std::move(p));
  }
  void EmitEos(int out_port) override { ++eos[out_port]; }
  void EmitPage(int out_port, Page&& page) override {
    ++pages_emitted;
    for (StreamElement& e : page.mutable_elements()) {
      tuples[out_port].push_back(std::move(e.mutable_tuple()));
    }
  }
  void EmitFeedback(int in_port, FeedbackPunctuation fb) override {
    feedback[in_port].push_back(std::move(fb));
  }
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}
  int PurgeInput(int in_port, const PunctPattern&) override {
    ++purge_calls[in_port];
    return 0;
  }
  int PrioritizeInput(int in_port, const PunctPattern&) override {
    ++prioritize_calls[in_port];
    return 0;
  }

  std::map<int, std::vector<Tuple>> tuples;
  std::map<int, std::vector<Punctuation>> puncts;
  std::map<int, std::vector<FeedbackPunctuation>> feedback;
  std::map<int, int> eos;
  std::map<int, int> purge_calls;
  std::map<int, int> prioritize_calls;
  int pages_emitted = 0;
};

std::unique_ptr<Exchange> OpenExchange(int shards,
                                       RecordingContext* ctx) {
  ExchangeOptions opts;
  opts.partition_keys = {0};
  auto xchg = std::make_unique<Exchange>("xchg", shards, opts);
  EXPECT_TRUE(xchg->SetInputSchema(0, KeyTsPayloadSchema()).ok());
  EXPECT_TRUE(xchg->InferSchemas().ok());
  EXPECT_TRUE(xchg->Open(ctx).ok());
  return xchg;
}

TEST(Exchange, PartitionsTuplesAndBroadcastsPunctuation) {
  RecordingContext ctx;
  auto xchg = OpenExchange(4, &ctx);

  Page page;
  const int kTuples = 512;
  for (int64_t i = 0; i < kTuples; ++i) {
    page.Add(StreamElement::OfTuple(
        TupleBuilder().I64(i).Ts(i).I64(i * 2).Build()));
  }
  page.Add(StreamElement::OfPunct(Punctuation(P("[*,<=511,*]"))));
  ASSERT_TRUE(xchg->ProcessPage(0, std::move(page), nullptr).ok());

  int total = 0;
  for (int s = 0; s < 4; ++s) {
    // Every tuple reached exactly one shard; the partition is total.
    total += static_cast<int>(ctx.tuples[s].size());
    EXPECT_EQ(xchg->routed(s), ctx.tuples[s].size());
    // The punctuation reached every shard.
    ASSERT_EQ(ctx.puncts[s].size(), 1u) << "shard " << s;
    EXPECT_EQ(ctx.puncts[s][0].pattern(), P("[*,<=511,*]"));
  }
  EXPECT_EQ(total, kTuples);

  // Routing agrees with the static function (what the merge and the
  // join's debug tripwire use).
  for (int s = 0; s < 4; ++s) {
    for (const Tuple& t : ctx.tuples[s]) {
      EXPECT_EQ(Exchange::ShardOfHash(
                    Exchange::RoutingHash(t, {0}), 4),
                s);
    }
  }
}

TEST(Exchange, PunctuationNeverOvertakesStagedTuples) {
  RecordingContext ctx;
  auto xchg = OpenExchange(2, &ctx);

  // Tuples staged (fewer than stage_page_size, so they sit in the
  // staging page) followed by a punctuation: the flush must deliver
  // the tuples first on every port.
  Page page;
  for (int64_t i = 0; i < 10; ++i) {
    page.Add(StreamElement::OfTuple(
        TupleBuilder().I64(i).Ts(i).I64(0).Build()));
  }
  page.Add(StreamElement::OfPunct(Punctuation(P("[*,<=9,*]"))));
  ASSERT_TRUE(xchg->ProcessPage(0, std::move(page), nullptr).ok());
  EXPECT_EQ(ctx.tuples[0].size() + ctx.tuples[1].size(), 10u);
  EXPECT_GT(ctx.pages_emitted, 0);
  ASSERT_EQ(ctx.puncts[0].size(), 1u);
  ASSERT_EQ(ctx.puncts[1].size(), 1u);
}

TEST(Exchange, AssumedFeedbackGuardsPortThenCoalescesUpstream) {
  RecordingContext ctx;
  auto xchg = OpenExchange(3, &ctx);
  // Payload-pinned, key-free: no single shard owns the subset, so the
  // exchange must wait for every shard to concur.
  FeedbackPunctuation fb = FB("~[*,*,7]");

  // Shard 0 assumes ¬[*,*,7]: its port is guarded, nothing relayed —
  // other shards' slices of the stream are not covered by the claim.
  ASSERT_TRUE(xchg->ProcessFeedback(0, fb).ok());
  EXPECT_EQ(xchg->port_guards(0).size(), 1);
  EXPECT_TRUE(xchg->input_guards().empty());
  EXPECT_EQ(xchg->coalesced_relays(), 0u);
  EXPECT_TRUE(ctx.feedback[0].empty());
  EXPECT_EQ(xchg->pending_feedback(), 1u);

  // A duplicate from the same shard changes nothing.
  ASSERT_TRUE(xchg->ProcessFeedback(0, fb).ok());
  EXPECT_EQ(xchg->coalesced_relays(), 0u);

  // Remaining shards concur: now the subset is dead stream-wide — the
  // exchange guards its input, purges the backlog, and relays ONE
  // coalesced claim upstream.
  ASSERT_TRUE(xchg->ProcessFeedback(1, fb).ok());
  EXPECT_TRUE(ctx.feedback[0].empty());
  ASSERT_TRUE(xchg->ProcessFeedback(2, fb).ok());
  ASSERT_EQ(ctx.feedback[0].size(), 1u);
  EXPECT_TRUE(ctx.feedback[0][0].EquivalentTo(fb));
  EXPECT_FALSE(xchg->input_guards().empty());
  EXPECT_EQ(ctx.purge_calls[0], 1);
  EXPECT_EQ(xchg->coalesced_relays(), 1u);
  EXPECT_EQ(xchg->pending_feedback(), 0u);

  // Tuples matching the coalesced claim are now dropped at the input.
  Page page;
  page.Add(StreamElement::OfTuple(
      TupleBuilder().I64(1).Ts(1).I64(7).Build()));
  page.Add(StreamElement::OfTuple(
      TupleBuilder().I64(2).Ts(1).I64(8).Build()));
  ASSERT_TRUE(xchg->ProcessPage(0, std::move(page), nullptr).ok());
  // The input is drained, so an executor would park the task and
  // flush its staged pages here.
  ASSERT_TRUE(xchg->FlushStaged().ok());
  size_t delivered = 0;
  for (int s = 0; s < 3; ++s) delivered += ctx.tuples[s].size();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(xchg->stats().input_guard_drops, 1u);
}

TEST(Exchange, KeyPinnedAssumedFeedbackRelaysFromOwnerImmediately) {
  RecordingContext ctx;
  auto xchg = OpenExchange(4, &ctx);

  // ¬[5,*,*] pins the partition key: every matching tuple routes to
  // one shard, so that shard's claim kills the subset stream-wide.
  Tuple probe = TupleBuilder().I64(5).Ts(0).I64(0).Build();
  int owner =
      Exchange::ShardOfHash(Exchange::RoutingHash(probe, {0}), 4);
  FeedbackPunctuation fb = FB("~[5,*,*]");

  // From a non-owner the claim is vacuous: no state, no relay.
  ASSERT_TRUE(xchg->ProcessFeedback((owner + 1) % 4, fb).ok());
  EXPECT_TRUE(ctx.feedback[0].empty());
  EXPECT_EQ(xchg->pending_feedback(), 0u);
  EXPECT_EQ(xchg->stats().feedback_ignored, 1u);

  // From the owner it exploits and relays at once — no waiting for
  // shards that will never see the key.
  ASSERT_TRUE(xchg->ProcessFeedback(owner, fb).ok());
  ASSERT_EQ(ctx.feedback[0].size(), 1u);
  EXPECT_TRUE(ctx.feedback[0][0].EquivalentTo(fb));
  EXPECT_EQ(xchg->owner_relays(), 1u);
  EXPECT_FALSE(xchg->input_guards().empty());
  EXPECT_EQ(ctx.purge_calls[0], 1);
  EXPECT_EQ(xchg->pending_feedback(), 0u);

  // Key 5 now dies at the exchange input.
  Page page;
  page.Add(StreamElement::OfTuple(
      TupleBuilder().I64(5).Ts(1).I64(0).Build()));
  ASSERT_TRUE(xchg->ProcessPage(0, std::move(page), nullptr).ok());
  EXPECT_EQ(xchg->stats().input_guard_drops, 1u);
}

TEST(Exchange, DesiredFeedbackPrioritizesOnceAndRelaysOnce) {
  RecordingContext ctx;
  auto xchg = OpenExchange(2, &ctx);
  // Key-free desired pattern: first shard to ask wins, later identical
  // requests are already served.
  FeedbackPunctuation fb = FB("?[*,<=5,*]");

  ASSERT_TRUE(xchg->ProcessFeedback(1, fb).ok());
  EXPECT_EQ(ctx.prioritize_calls[0], 1);
  ASSERT_EQ(ctx.feedback[0].size(), 1u);

  // The second shard's identical request is already served.
  ASSERT_TRUE(xchg->ProcessFeedback(0, fb).ok());
  EXPECT_EQ(ctx.prioritize_calls[0], 1);
  EXPECT_EQ(ctx.feedback[0].size(), 1u);

  // A key-pinned desired request (the impatient join's shape) acts
  // only when it comes from the key's owner shard.
  Tuple probe = TupleBuilder().I64(42).Ts(0).I64(0).Build();
  int owner =
      Exchange::ShardOfHash(Exchange::RoutingHash(probe, {0}), 2);
  FeedbackPunctuation keyed = FB("?[42,*,*]");
  ASSERT_TRUE(xchg->ProcessFeedback(1 - owner, keyed).ok());
  EXPECT_EQ(ctx.prioritize_calls[0], 1);  // vacuous: untouched
  ASSERT_TRUE(xchg->ProcessFeedback(owner, keyed).ok());
  EXPECT_EQ(ctx.prioritize_calls[0], 2);
  EXPECT_EQ(ctx.feedback[0].size(), 2u);
}

// ---------------------------------------------------------------------------
// ShardMerge coalescing
// ---------------------------------------------------------------------------

std::unique_ptr<ShardMerge> OpenMerge(int inputs,
                                      std::vector<int> partition_keys,
                                      RecordingContext* ctx) {
  ShardMergeOptions opts;
  opts.partition_keys = std::move(partition_keys);
  auto merge = std::make_unique<ShardMerge>("merge", inputs, opts);
  for (int i = 0; i < inputs; ++i) {
    EXPECT_TRUE(merge->SetInputSchema(i, KeyTsPayloadSchema()).ok());
  }
  EXPECT_TRUE(merge->InferSchemas().ok());
  EXPECT_TRUE(merge->Open(ctx).ok());
  return merge;
}

TEST(ShardMerge, WatermarkWaitsForEveryShardAndNeverDuplicates) {
  RecordingContext ctx;
  auto merge = OpenMerge(3, {0}, &ctx);

  // Two of three shards advance: no emission (early emission would
  // claim completeness the third shard can still violate).
  ASSERT_TRUE(
      merge->ProcessPunctuation(0, Punctuation(P("[*,<=10,*]"))).ok());
  ASSERT_TRUE(
      merge->ProcessPunctuation(1, Punctuation(P("[*,<=20,*]"))).ok());
  EXPECT_TRUE(ctx.puncts[0].empty());

  // Third shard arrives: emit the MIN across shards, exactly once.
  ASSERT_TRUE(
      merge->ProcessPunctuation(2, Punctuation(P("[*,<=15,*]"))).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 1u);
  EXPECT_EQ(ctx.puncts[0][0].pattern(), P("[*,<=10,*]"));

  // Shard 0 re-asserting its bound must not re-emit.
  ASSERT_TRUE(
      merge->ProcessPunctuation(0, Punctuation(P("[*,<=10,*]"))).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 1u);

  // Shard 0 advancing to 30 raises the min to 15 (shards 1 and 2
  // already stand at 20 and 15): emit the new min, exactly once.
  ASSERT_TRUE(
      merge->ProcessPunctuation(0, Punctuation(P("[*,<=30,*]"))).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 2u);
  EXPECT_EQ(ctx.puncts[0][1].pattern(), P("[*,<=15,*]"));

  // Shard 1 advancing leaves the min at 15: no emission. Shard 2
  // advancing to 25 raises it again.
  ASSERT_TRUE(
      merge->ProcessPunctuation(1, Punctuation(P("[*,<=30,*]"))).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 2u);
  ASSERT_TRUE(
      merge->ProcessPunctuation(2, Punctuation(P("[*,<=25,*]"))).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 3u);
  EXPECT_EQ(ctx.puncts[0][2].pattern(), P("[*,<=25,*]"));
}

TEST(ShardMerge, KeyPinnedPunctuationPassesFromOwnerShardOnly) {
  RecordingContext ctx;
  auto merge = OpenMerge(4, {0}, &ctx);

  Tuple probe = TupleBuilder().I64(5).Ts(0).I64(0).Build();
  int owner =
      Exchange::ShardOfHash(Exchange::RoutingHash(probe, {0}), 4);
  Punctuation key_punct(P("[5,*,*]"));

  // From a non-owner shard the claim is vacuous (that shard never sees
  // key 5) and must NOT settle the merged stream.
  int non_owner = (owner + 1) % 4;
  ASSERT_TRUE(merge->ProcessPunctuation(non_owner, key_punct).ok());
  EXPECT_TRUE(ctx.puncts[0].empty());
  EXPECT_EQ(merge->dropped_vacuous_puncts(), 1u);

  // From the owner it settles the whole stream immediately.
  ASSERT_TRUE(merge->ProcessPunctuation(owner, key_punct).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 1u);
  EXPECT_EQ(ctx.puncts[0][0].pattern(), P("[5,*,*]"));
  EXPECT_EQ(merge->owner_routed_puncts(), 1u);
}

TEST(ShardMerge, GeneralPatternCoalescesAcrossAllShards) {
  RecordingContext ctx;
  auto merge = OpenMerge(2, {0}, &ctx);

  // >= is not watermark-shaped and doesn't pin the key: it must wait
  // for every shard.
  Punctuation punct(P("[>=100,*,*]"));
  ASSERT_TRUE(merge->ProcessPunctuation(0, punct).ok());
  EXPECT_TRUE(ctx.puncts[0].empty());
  ASSERT_TRUE(merge->ProcessPunctuation(0, punct).ok());  // duplicate
  EXPECT_TRUE(ctx.puncts[0].empty());
  ASSERT_TRUE(merge->ProcessPunctuation(1, punct).ok());
  ASSERT_EQ(ctx.puncts[0].size(), 1u);
  EXPECT_EQ(merge->coalesced_puncts(), 1u);
}

TEST(ShardMerge, HeldClaimsSurviveSnapshotRestore) {
  // Shards 0 and 1 make two general claims; the cut falls before
  // shard 2 makes them.
  auto feed_before_cut = [](ShardMerge* merge) {
    for (int shard : {0, 1}) {
      ASSERT_TRUE(
          merge->ProcessPunctuation(shard, Punctuation(P("[>=100,*,*]")))
              .ok());
      ASSERT_TRUE(
          merge->ProcessPunctuation(shard, Punctuation(P("[*,*,>=7]")))
              .ok());
    }
  };
  auto feed_after_cut = [](ShardMerge* merge) {
    ASSERT_TRUE(
        merge->ProcessPunctuation(2, Punctuation(P("[>=100,*,*]"))).ok());
    ASSERT_TRUE(
        merge->ProcessPunctuation(2, Punctuation(P("[*,*,>=7]"))).ok());
  };

  RecordingContext uncut_ctx;
  auto uncut = OpenMerge(3, {0}, &uncut_ctx);
  feed_before_cut(uncut.get());
  feed_after_cut(uncut.get());
  ASSERT_EQ(uncut_ctx.puncts[0].size(), 2u);

  RecordingContext ctx;
  auto merge = OpenMerge(3, {0}, &ctx);
  feed_before_cut(merge.get());
  EXPECT_TRUE(ctx.puncts[0].empty());
  SnapshotWriter w;
  ASSERT_TRUE(merge->SnapshotState(&w).ok());

  RecordingContext restored_ctx;
  auto restored = OpenMerge(3, {0}, &restored_ctx);
  SnapshotReader r(w.buffer());
  ASSERT_TRUE(restored->RestoreState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  feed_after_cut(restored.get());
  ASSERT_EQ(restored_ctx.puncts[0].size(), 2u);
  EXPECT_EQ(restored_ctx.puncts[0][0].pattern(), P("[>=100,*,*]"));
  EXPECT_EQ(restored_ctx.puncts[0][1].pattern(), P("[*,*,>=7]"));
  EXPECT_EQ(restored->coalesced_puncts(), 2u);
}

TEST(ShardMerge, AllTuplePagesForwardWholesale) {
  RecordingContext ctx;
  auto merge = OpenMerge(2, {0}, &ctx);

  Page page;
  for (int64_t i = 0; i < 8; ++i) {
    page.Add(StreamElement::OfTuple(
        TupleBuilder().I64(i).Ts(i).I64(0).Build()));
  }
  ASSERT_TRUE(merge->ProcessPage(1, std::move(page), nullptr).ok());
  EXPECT_EQ(ctx.tuples[0].size(), 8u);
  EXPECT_EQ(ctx.pages_emitted, 1);
  EXPECT_EQ(merge->stats().tuples_in, 8u);
}

// ---------------------------------------------------------------------------
// Partitioned join: end-to-end equivalence and feedback relay
// ---------------------------------------------------------------------------

SchemaPtr LeftSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"a", ValueType::kInt64}});
}
SchemaPtr RightSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"b", ValueType::kInt64}});
}

struct Workload {
  std::vector<TimedElement> left;
  std::vector<TimedElement> right;
};

Workload RandomWorkload(uint64_t seed, int tuples_per_side, int num_keys,
                        bool with_punctuation) {
  std::mt19937_64 rng(seed);
  Workload w;
  TimeMs ts = 0;
  for (int i = 0; i < tuples_per_side; ++i) {
    ts += static_cast<TimeMs>(rng() % 3);
    int64_t lk = static_cast<int64_t>(rng() % num_keys);
    int64_t rk = static_cast<int64_t>(rng() % num_keys);
    w.left.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(lk).Ts(ts).I64(lk * 10 + 1).Build()));
    w.right.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(rk).Ts(ts).I64(rk * 10 + 2).Build()));
    if (with_punctuation && i % 64 == 63) {
      // Both sides punctuate "complete through ts": drives window
      // close/purge inside shards and watermark coalescing at merge.
      w.left.push_back(TimedElement::OfPunct(
          ts, Punctuation(P("[*,<=" + std::to_string(ts) + ",*]"))));
      w.right.push_back(TimedElement::OfPunct(
          ts, Punctuation(P("[*,<=" + std::to_string(ts) + ",*]"))));
    }
  }
  return w;
}

struct PartitionedRun {
  std::vector<std::string> sorted_rows;
  uint64_t joined = 0;
  uint64_t merge_puncts_out = 0;
};

PartitionedRun RunPartitioned(const Workload& w, int shards,
                              bool threaded, bool window_join,
                              bool collide_join_hash) {
  QueryPlan plan;
  auto* left = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), w.left));
  auto* right = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), w.right));

  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  if (window_join) {
    jo.window_join = true;
    jo.left_ts = 1;
    jo.right_ts = 1;
    jo.window = WindowSpec{/*range_ms=*/64, /*slide_ms=*/64};
  }
  if (collide_join_hash) {
    // Force every (wid,key) onto one table hash: the shard joins must
    // stay correct purely via collision-checked subset equality while
    // the exchange still routes by the REAL key hash.
    jo.key_hash_override = [](const Tuple&, int, int64_t) {
      return 42ULL;
    };
  }

  Result<PartitionedJoinPlan> pj =
      MakePartitionedJoin(&plan, "pjoin", jo, shards);
  EXPECT_TRUE(pj.ok()) << pj.status().ToString();
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(
      plan.Connect(*left, 0, *pj.value().left_exchange, 0).ok());
  EXPECT_TRUE(
      plan.Connect(*right, 0, *pj.value().right_exchange, 0).ok());
  EXPECT_TRUE(plan.Connect(pj.value().merge->id(), 0, sink->id(), 0).ok());

  Status st;
  if (threaded) {
    ThreadedExecutorOptions opts;
    opts.max_pages_per_wake = 4;
    ThreadedExecutor exec(opts);
    st = exec.Run(&plan);
  } else {
    SyncExecutor exec;
    st = exec.Run(&plan);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();

  PartitionedRun out;
  for (SymmetricHashJoin* shard : pj.value().shards) {
    out.joined += shard->joined_count();
  }
  out.merge_puncts_out = pj.value().merge->stats().puncts_out;
  for (const CollectedTuple& row : sink->collected()) {
    out.sorted_rows.push_back(row.tuple.ToString());
  }
  std::sort(out.sorted_rows.begin(), out.sorted_rows.end());
  return out;
}

TEST(PartitionedJoin, FourShardsMatchOneShardOnRandomizedWorkload) {
  Workload w = RandomWorkload(/*seed=*/1234, /*tuples_per_side=*/1500,
                              /*num_keys=*/97, /*with_punctuation=*/false);
  PartitionedRun base = RunPartitioned(w, 1, /*threaded=*/false,
                                       /*window_join=*/false, false);
  PartitionedRun sharded = RunPartitioned(w, 4, /*threaded=*/false,
                                          /*window_join=*/false, false);
  ASSERT_GT(base.sorted_rows.size(), 0u);
  EXPECT_EQ(base.joined, sharded.joined);
  EXPECT_EQ(base.sorted_rows, sharded.sorted_rows);
}

TEST(PartitionedJoin, WindowedFourShardsMatchOneShardWithPunctuation) {
  Workload w = RandomWorkload(/*seed=*/99, /*tuples_per_side=*/1500,
                              /*num_keys=*/61, /*with_punctuation=*/true);
  PartitionedRun base = RunPartitioned(w, 1, /*threaded=*/false,
                                       /*window_join=*/true, false);
  PartitionedRun sharded = RunPartitioned(w, 4, /*threaded=*/false,
                                          /*window_join=*/true, false);
  ASSERT_GT(base.sorted_rows.size(), 0u);
  EXPECT_EQ(base.joined, sharded.joined);
  EXPECT_EQ(base.sorted_rows, sharded.sorted_rows);
  // The merge really coalesced and emitted downstream punctuation.
  EXPECT_GT(sharded.merge_puncts_out, 0u);
}

TEST(PartitionedJoin, CollisionSafeUnderForcedJoinHashCollisions) {
  Workload w = RandomWorkload(/*seed=*/7, /*tuples_per_side=*/600,
                              /*num_keys=*/37, /*with_punctuation=*/false);
  PartitionedRun honest = RunPartitioned(w, 4, /*threaded=*/false,
                                         /*window_join=*/false, false);
  PartitionedRun collided = RunPartitioned(w, 4, /*threaded=*/false,
                                           /*window_join=*/false, true);
  EXPECT_EQ(honest.sorted_rows, collided.sorted_rows);
}

TEST(PartitionedJoin, ThreadedExecutorMatchesSyncResults) {
  Workload w = RandomWorkload(/*seed=*/5150, /*tuples_per_side=*/1200,
                              /*num_keys=*/73, /*with_punctuation=*/true);
  PartitionedRun sync_run = RunPartitioned(w, 4, /*threaded=*/false,
                                           /*window_join=*/true, false);
  PartitionedRun threaded_run = RunPartitioned(w, 4, /*threaded=*/true,
                                               /*window_join=*/true,
                                               false);
  ASSERT_GT(sync_run.sorted_rows.size(), 0u);
  EXPECT_EQ(sync_run.sorted_rows, threaded_run.sorted_rows);
}

TEST(PartitionedJoin, FeedbackRelayedThroughMergePurgesEveryShard) {
  // Left payload attr "a" is the constant 7 for every key, so assumed
  // feedback on it addresses state in EVERY shard; it is a left-only
  // attribute, so Table 2 row 2 applies inside each shard (purge left,
  // guard left, propagate left).
  const int kPerSide = 1200;
  const int kKeys = 64;
  Workload w;
  for (int i = 0; i < kPerSide; ++i) {
    TimeMs ts = static_cast<TimeMs>(i);
    int64_t k = static_cast<int64_t>(i % kKeys);
    w.left.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(k).Ts(ts).I64(7).Build()));
    w.right.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(k).Ts(ts).I64(k).Build()));
  }

  QueryPlan plan;
  auto* left = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), w.left));
  auto* right = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), w.right));
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  Result<PartitionedJoinPlan> pj =
      MakePartitionedJoin(&plan, "pjoin", jo, 4);
  ASSERT_TRUE(pj.ok()) << pj.status().ToString();

  // Output schema: k, ts, a, ts, b — the feedback pins a (position 2).
  auto fired = std::make_shared<bool>(false);
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false},
      [fired](const Tuple&,
              TimeMs) -> std::vector<FeedbackPunctuation> {
        if (*fired) return {};
        *fired = true;
        return {FB("~[*,*,7,*,*]")};
      }));
  ASSERT_TRUE(plan.Connect(*left, 0, *pj.value().left_exchange, 0).ok());
  ASSERT_TRUE(
      plan.Connect(*right, 0, *pj.value().right_exchange, 0).ok());
  ASSERT_TRUE(
      plan.Connect(pj.value().merge->id(), 0, sink->id(), 0).ok());

  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());

  // The merge relayed the feedback to every shard...
  EXPECT_EQ(pj.value().merge->stats().feedback_received, 1u);
  EXPECT_EQ(pj.value().merge->stats().feedback_propagated, 4u);
  // ...and every shard exploited it: left-table state purged, left
  // input guarded, derived claim relayed further upstream.
  for (SymmetricHashJoin* shard : pj.value().shards) {
    EXPECT_GT(shard->stats().state_purged, 0u)
        << shard->name() << " purged nothing";
    EXPECT_GT(shard->stats().feedback_propagated, 0u)
        << shard->name() << " relayed nothing";
  }
  // The left exchange heard an equivalent claim from all 4 shards and
  // coalesced it into ONE upstream relay; the claim covers the whole
  // left stream, so later left tuples die at the exchange input.
  EXPECT_EQ(pj.value().left_exchange->coalesced_relays(), 1u);
  EXPECT_FALSE(pj.value().left_exchange->input_guards().empty());
  EXPECT_GT(pj.value().left_exchange->stats().input_guard_drops, 0u);
  // The right exchange heard nothing (left-only attribute).
  EXPECT_EQ(pj.value().right_exchange->coalesced_relays(), 0u);
}

TEST(PartitionedJoin, GateFeedbackRelaysUpstreamFromOwnerShard) {
  // The speed-map adaptive gate (§3.3) through a sharded topology:
  // left tuples failing the gate make their shard send key-pinned
  // assumed feedback toward the right input. The right exchange must
  // recognize the sending shard as the key's owner and relay upstream
  // IMMEDIATELY — the other shards never see the key and could never
  // concur.
  const int kPerSide = 512;
  const int kRightTail = 7680;
  const int kKeys = 16;
  Workload w;
  for (int i = 0; i < kPerSide; ++i) {
    TimeMs ts = static_cast<TimeMs>(i);
    int64_t k = static_cast<int64_t>(i % kKeys);
    // Left payload is the "sensor speed"; even keys fail the <45 gate.
    w.left.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(k).Ts(ts).I64(k % 2 == 0 ? 60 : 30)
                .Build()));
    w.right.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(k).Ts(ts).I64(k).Build()));
    if (i % 64 == 63) {
      Punctuation punct(P("[*,<=" + std::to_string(ts) + ",*]"));
      w.left.push_back(TimedElement::OfPunct(ts, punct));
      w.right.push_back(TimedElement::OfPunct(ts, punct));
    }
  }
  // The right stream outlasts the left with keys that join nothing, so
  // the right exchange is still running when the last claim arrives: a
  // finished operator's task is gone, and feedback sent to it is
  // dropped.
  for (int i = 0; i < kRightTail; ++i) {
    const TimeMs ts = static_cast<TimeMs>(kPerSide + i);
    w.right.push_back(TimedElement::OfTuple(
        ts, TupleBuilder().I64(kKeys + i % kKeys).Ts(ts).I64(0).Build()));
  }

  QueryPlan plan;
  auto* left = plan.AddOp(std::make_unique<VectorSource>(
      "L", LeftSchema(), w.left));
  auto* right = plan.AddOp(std::make_unique<VectorSource>(
      "R", RightSchema(), w.right));
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  jo.window_join = true;
  jo.left_ts = 1;
  jo.right_ts = 1;
  jo.window = WindowSpec{/*range_ms=*/64, /*slide_ms=*/64};
  jo.left_gate = [](const Tuple& t) {
    return t.value(2).AsInt64().value() < 45;
  };
  jo.gate_feedback_horizon = 4;
  Result<PartitionedJoinPlan> pj =
      MakePartitionedJoin(&plan, "pjoin", jo, 4);
  ASSERT_TRUE(pj.ok()) << pj.status().ToString();
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false}));
  ASSERT_TRUE(plan.Connect(*left, 0, *pj.value().left_exchange, 0).ok());
  ASSERT_TRUE(
      plan.Connect(*right, 0, *pj.value().right_exchange, 0).ok());
  ASSERT_TRUE(
      plan.Connect(pj.value().merge->id(), 0, sink->id(), 0).ok());

  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(&plan).ok());

  uint64_t gate_feedbacks = 0;
  for (SymmetricHashJoin* shard : pj.value().shards) {
    gate_feedbacks += shard->gate_feedbacks();
  }
  ASSERT_GT(gate_feedbacks, 0u);
  // Every gate claim is key-pinned and was sent by the key's owner:
  // all of them relay upstream through the right exchange with no
  // coalescing residue.
  EXPECT_EQ(pj.value().right_exchange->owner_relays(), gate_feedbacks);
  EXPECT_EQ(pj.value().right_exchange->pending_feedback(), 0u);
  EXPECT_FALSE(pj.value().right_exchange->input_guards().empty());
}

}  // namespace
}  // namespace nstream
