// Row ↔ columnar layout equivalence: every pipeline must produce the
// same result multiset with columnar page staging enabled and
// disabled, crossed with page arenas on/off (columnar requires arenas,
// so columnar-on/arenas-off must silently degrade to row staging, not
// misbehave). Randomized streams with punctuation at arbitrary
// mid-page positions drive Select / Pace / Project chains, the
// symmetric hash join (columnar emit + columnar adjacency probe,
// including a forced-collision storm through key_hash_override), and
// WindowAggregate — under the sync and threaded executors.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "exec/threaded_executor.h"
#include "ops/pace.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "ops/window_aggregate.h"
#include "stream/columnar.h"
#include "testing/test_util.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

using testing_util::AtMillis;
using testing_util::P;

using Rows = std::multiset<std::string>;

Rows Collect(const CollectorSink* sink) {
  Rows out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

// Run `run` under all four layout × arena configurations and assert
// the result multisets agree. Returns the baseline (row, no-arena)
// rows so callers can assert on content.
template <typename RunFn>
Rows AllConfigsAgree(RunFn&& run, const char* what) {
  Rows baseline;
  bool first = true;
  for (bool columnar : {false, true}) {
    for (bool arenas : {false, true}) {
      ScopedPageColumnarEnabled c(columnar);
      ScopedTupleArenasEnabled a(arenas);
      Rows rows = run();
      if (first) {
        baseline = std::move(rows);
        first = false;
      } else {
        EXPECT_EQ(rows, baseline)
            << what << " columnar=" << columnar << " arenas=" << arenas;
      }
    }
  }
  return baseline;
}

// ---------------------------------------------------------------------------
// Select / Pace / Project chain with punctuation at random positions.
// ---------------------------------------------------------------------------

SchemaPtr ChainSchema() {
  return Schema::Make({{"ts", ValueType::kTimestamp},
                       {"k", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"v", ValueType::kDouble}});
}

std::vector<TimedElement> RandomChainStream(std::mt19937* rng, int n) {
  std::vector<TimedElement> out;
  TimeMs at = 0;
  int64_t hwm = 0;
  for (int i = 0; i < n; ++i) {
    // Mostly-ordered timestamps with bounded disorder, so Pace both
    // passes and drops.
    int64_t ts = hwm + static_cast<int64_t>((*rng)() % 7) - 3;
    if (ts < 0) ts = 0;
    hwm = std::max(hwm, ts);
    std::string s = "s-" + std::to_string((*rng)() % 40);
    if ((*rng)() % 4 == 0) s += "-stretched-well-past-the-inline-cap";
    out.push_back(TimedElement::OfTuple(
        at++, TupleBuilder()
                  .Ts(ts)
                  .I64(static_cast<int64_t>((*rng)() % 10))
                  .S(std::move(s))
                  .D(static_cast<double>((*rng)() % 100) / 4.0)
                  .Build()));
    // Punctuation at arbitrary mid-page positions: forces page
    // flushes at uneven fills and exercises the flush-before-punct
    // ordering on columnar staging paths.
    if ((*rng)() % 11 == 0) {
      out.push_back(TimedElement::OfPunct(
          at++, Punctuation(P("[<=t:" + std::to_string(hwm) + ",*,*,*]"))));
    }
  }
  return out;
}

Rows RunChain(const std::vector<TimedElement>& elems, bool threaded) {
  testing_util::LinearPlan plan(ChainSchema(), elems);
  // Permuting projection: its paged path stages a fresh output page
  // (columnar when enabled) per input page.
  plan.Add(std::make_unique<Project>("perm", std::vector<int>{3, 0, 2, 1}));
  // Select rides FilterPageInPlace: selection vector vs compaction.
  plan.Add(std::make_unique<Select>("sel", [](const Tuple& t) {
    return t.value(3).int64_value() % 3 != 0;
  }));
  PaceOptions popt;
  popt.ts_attr = 1;
  popt.tolerance_ms = 2;
  popt.mode = PaceMode::kDrop;
  plan.Add(std::make_unique<Pace>("pace", 1, popt));
  // Remap projection: on columnar input this is the in-place
  // column-repoint fast path (duplicates included).
  plan.Add(std::make_unique<Project>("remap", std::vector<int>{1, 2, 0, 0}));
  CollectorSink* sink = plan.Finish();
  Status st;
  if (threaded) {
    st = plan.RunThreaded();
  } else {
    SchedulerOptions opts;
    opts.queue.page_size = 16;
    st = plan.RunSync(opts);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collect(sink);
}

TEST(ColumnarEquivalenceTest, SelectPaceProjectChain) {
  std::mt19937 rng(20260808);
  for (int round = 0; round < 5; ++round) {
    std::vector<TimedElement> elems = RandomChainStream(&rng, 300);
    Rows rows = AllConfigsAgree(
        [&] { return RunChain(elems, /*threaded=*/false); }, "chain");
    EXPECT_GT(rows.size(), 0u);
  }
}

TEST(ColumnarEquivalenceTest, SelectPaceProjectChainThreaded) {
  std::mt19937 rng(424242);
  std::vector<TimedElement> elems = RandomChainStream(&rng, 400);
  Rows sync_rows = RunChain(elems, false);
  Rows threaded_rows = AllConfigsAgree(
      [&] { return RunChain(elems, /*threaded=*/true); }, "chain-threaded");
  EXPECT_EQ(sync_rows, threaded_rows);
}

// ---------------------------------------------------------------------------
// Symmetric hash join: columnar emit + columnar adjacency probe, with
// string payloads (table promotion out of columnar pages) and forced
// hash collisions.
// ---------------------------------------------------------------------------

SchemaPtr JoinSide() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"p", ValueType::kString}});
}

std::vector<Tuple> RandomJoinSide(std::mt19937* rng, int n,
                                  const char* tag) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string payload = std::string(tag) + "-" + std::to_string(i);
    if (i % 3 == 0) payload += "-past-the-fifteen-byte-inline-cap";
    out.push_back(TupleBuilder()
                      .I64(static_cast<int64_t>((*rng)() % 11))
                      .Ts(static_cast<int64_t>((*rng)() % 60))
                      .S(std::move(payload))
                      .Build());
  }
  return out;
}

Rows RunJoin(const std::vector<Tuple>& left,
             const std::vector<Tuple>& right, bool left_outer,
             bool collide, bool threaded) {
  QueryPlan plan;
  auto* l = plan.AddOp(std::make_unique<VectorSource>(
      "L", JoinSide(), AtMillis(left)));
  auto* r = plan.AddOp(std::make_unique<VectorSource>(
      "R", JoinSide(), AtMillis(right)));
  // Identity projections so the join's input pages are operator-built
  // (columnar when enabled) rather than source row pages.
  auto* pl = plan.AddOp(
      std::make_unique<Project>("pl", std::vector<int>{0, 1, 2}));
  auto* pr = plan.AddOp(
      std::make_unique<Project>("pr", std::vector<int>{0, 1, 2}));
  JoinOptions jopt;
  jopt.left_keys = {0};
  jopt.right_keys = {0};
  jopt.left_ts = 1;
  jopt.right_ts = 1;
  jopt.window_join = true;
  jopt.window = WindowSpec{10, 10};
  jopt.left_outer = left_outer;
  jopt.output_page_size = 8;  // several staged-page generations
  if (collide) {
    // Collision storm: the probe must re-establish key equality.
    jopt.key_hash_override = [](const Tuple&, int, int64_t) {
      return uint64_t{42};
    };
  }
  auto* join =
      plan.AddOp(std::make_unique<SymmetricHashJoin>("join", jopt));
  auto* sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));
  EXPECT_TRUE(plan.Connect(*l, 0, *pl, 0).ok());
  EXPECT_TRUE(plan.Connect(*r, 0, *pr, 0).ok());
  EXPECT_TRUE(plan.Connect(*pl, 0, *join, 0).ok());
  EXPECT_TRUE(plan.Connect(*pr, 0, *join, 1).ok());
  EXPECT_TRUE(plan.Connect(*join, *sink).ok());
  Status st;
  if (threaded) {
    ThreadedExecutor exec;
    st = exec.Run(&plan);
  } else {
    SchedulerOptions opts;
    opts.queue.page_size = 16;
    SyncExecutor exec(opts);
    st = exec.Run(&plan);
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collect(sink);
}

TEST(ColumnarEquivalenceTest, JoinAllLayoutConfigs) {
  std::mt19937 rng(777);
  for (bool left_outer : {false, true}) {
    std::vector<Tuple> left = RandomJoinSide(&rng, 150, "left");
    std::vector<Tuple> right = RandomJoinSide(&rng, 150, "right");
    Rows rows = AllConfigsAgree(
        [&] {
          return RunJoin(left, right, left_outer, /*collide=*/false,
                         /*threaded=*/false);
        },
        left_outer ? "join-outer" : "join-inner");
    EXPECT_GT(rows.size(), 0u);
    // String payloads must survive the copy out of columnar pages
    // into the join's window tables intact.
    for (const std::string& row : rows) {
      if (row.find("null") != std::string::npos) continue;
      EXPECT_NE(row.find("'left-"), std::string::npos) << row;
      EXPECT_NE(row.find("'right-"), std::string::npos) << row;
    }
  }
}

TEST(ColumnarEquivalenceTest, JoinForcedHashCollisions) {
  // Every (wid, key) hashes to the same bucket: the columnar probe
  // path must re-check key equality per entry, exactly like the row
  // path, and both must agree on the result multiset.
  std::mt19937 rng(31337);
  std::vector<Tuple> left = RandomJoinSide(&rng, 120, "left");
  std::vector<Tuple> right = RandomJoinSide(&rng, 120, "right");
  Rows honest = RunJoin(left, right, false, /*collide=*/false,
                        /*threaded=*/false);
  Rows collided = AllConfigsAgree(
      [&] {
        return RunJoin(left, right, false, /*collide=*/true,
                       /*threaded=*/false);
      },
      "join-collide");
  EXPECT_EQ(honest, collided);
  EXPECT_GT(honest.size(), 0u);
}

TEST(ColumnarEquivalenceTest, JoinThreadedExecutor) {
  std::mt19937 rng(5150);
  std::vector<Tuple> left = RandomJoinSide(&rng, 120, "left");
  std::vector<Tuple> right = RandomJoinSide(&rng, 120, "right");
  Rows sync_rows = RunJoin(left, right, true, false, /*threaded=*/false);
  Rows threaded_rows = AllConfigsAgree(
      [&] {
        return RunJoin(left, right, true, false, /*threaded=*/true);
      },
      "join-threaded");
  EXPECT_EQ(sync_rows, threaded_rows);
}

// ---------------------------------------------------------------------------
// WindowAggregate: columnar result staging (EmitResult) and columnar
// input pages from an upstream Project.
// ---------------------------------------------------------------------------

SchemaPtr AggSchema() {
  return Schema::Make({{"ts", ValueType::kTimestamp},
                       {"g", ValueType::kInt64},
                       {"v", ValueType::kDouble}});
}

std::vector<TimedElement> RandomAggStream(std::mt19937* rng, int n) {
  std::vector<TimedElement> out;
  TimeMs at = 0;
  for (int i = 0; i < n; ++i) {
    out.push_back(TimedElement::OfTuple(
        at++, TupleBuilder()
                  .Ts(static_cast<int64_t>((*rng)() % 500))
                  .I64(static_cast<int64_t>((*rng)() % 5))
                  .D(static_cast<double>((*rng)() % 1000) / 10.0)
                  .Build()));
    if (i > 0 && i % 29 == 0) {
      out.push_back(TimedElement::OfPunct(
          at++, Punctuation(P("[<=t:" +
                              std::to_string((*rng)() % 500) +
                              ",*,*]"))));
    }
  }
  return out;
}

Rows RunAgg(const std::vector<TimedElement>& elems, AggKind kind) {
  testing_util::LinearPlan plan(AggSchema(), elems);
  // Upstream identity Project so the aggregate's input pages are
  // columnar when enabled (its batched walk materializes them).
  plan.Add(std::make_unique<Project>("id", std::vector<int>{0, 1, 2}));
  WindowAggregateOptions wopt;
  wopt.ts_attr = 0;
  wopt.group_attrs = {1};
  wopt.agg_attr = 2;
  wopt.kind = kind;
  wopt.window = WindowSpec{100, 100};
  wopt.output_page_size = 4;  // several staged output pages
  plan.Add(std::make_unique<WindowAggregate>("agg", wopt));
  CollectorSink* sink = plan.Finish();
  SchedulerOptions opts;
  opts.queue.page_size = 8;
  Status st = plan.RunSync(opts);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Collect(sink);
}

TEST(ColumnarEquivalenceTest, WindowAggregateAllLayoutConfigs) {
  std::mt19937 rng(246810);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMax, AggKind::kMin}) {
    std::vector<TimedElement> elems = RandomAggStream(&rng, 300);
    Rows rows = AllConfigsAgree([&] { return RunAgg(elems, kind); },
                                AggKindName(kind));
    EXPECT_GT(rows.size(), 0u);
  }
}

}  // namespace
}  // namespace nstream
