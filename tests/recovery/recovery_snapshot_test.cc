// Snapshot codec + per-operator snapshot→restore coverage: primitive
// and engine-vocabulary round trips, file-envelope corruption
// detection, forged lengths and counts rejected before they are used,
// DataQueue content capture, and byte-exact re-snapshot
// equality for every stateful operator (join incl. forced hash
// collisions and outer-join window state, window aggregate across all
// five kinds incl. tombstones, source offsets). Canonical-form
// contract under test: snapshot(restore(snapshot(x))) == snapshot(x).

#include "recovery/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "ops/callback_source.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "ops/window_aggregate.h"
#include "stream/data_queue.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::FB;
using testing_util::P;

/// Records everything an operator emits, by kind.
class CollectCtx : public ExecContext {
 public:
  void EmitTuple(int, Tuple t) override {
    tuples.push_back(std::move(t));
  }
  void EmitPunct(int, Punctuation p) override {
    puncts.push_back(std::move(p));
  }
  void EmitEos(int) override { ++eos; }
  void EmitFeedback(int, FeedbackPunctuation) override { ++feedback; }
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}

  std::vector<std::string> TupleStrings() const {
    std::vector<std::string> out;
    for (const Tuple& t : tuples) out.push_back(t.ToString());
    return out;
  }

  std::vector<Tuple> tuples;
  std::vector<Punctuation> puncts;
  int eos = 0;
  int feedback = 0;
};

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

// ---------------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------------

TEST(SnapshotCodec, PrimitiveRoundTrip) {
  SnapshotWriter w;
  w.WriteU8(0xAB);
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x1122334455667788ULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteString("");
  w.WriteString("hello");
  w.WriteString(std::string(1000, 'x'));  // forces heap-backed read

  SnapshotReader r(w.buffer());
  uint8_t u8 = 0;
  bool b1 = false, b2 = true;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  std::string s0, s1, s2;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadBool(&b1).ok());
  ASSERT_TRUE(r.ReadBool(&b2).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadString(&s0).ok());
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, 0x1122334455667788ULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_EQ(s0, "");
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, std::string(1000, 'x'));
  EXPECT_TRUE(r.AtEnd());

  // Truncated payload fails cleanly rather than reading garbage.
  SnapshotReader trunc(std::string_view(w.buffer()).substr(0, 3));
  ASSERT_TRUE(trunc.ReadU8(&u8).ok());
  ASSERT_TRUE(trunc.ReadBool(&b1).ok());
  ASSERT_TRUE(trunc.ReadBool(&b2).ok());
  EXPECT_FALSE(trunc.ReadU32(&u32).ok());
}

TEST(SnapshotCodec, ValueAndTupleRoundTrip) {
  // All value kinds, including the three string storage classes:
  // empty, short (inline), long (heap/arena).
  Tuple t = TupleBuilder()
                .Null()
                .B(true)
                .I64(-7)
                .D(2.5)
                .Ts(123456)
                .S("")
                .S("abc")
                .S(std::string(300, 'q'))
                .Build();
  t.set_id(99);
  t.set_arrival_ms(1234);

  SnapshotWriter w;
  w.WriteTuple(t);
  SnapshotReader r(w.buffer());
  Tuple back;
  ASSERT_TRUE(r.ReadTuple(&back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(t, back);
  EXPECT_EQ(back.id(), 99);
  EXPECT_EQ(back.arrival_ms(), 1234);
  EXPECT_EQ(back.value(7).string_value(), std::string(300, 'q'));
}

TEST(SnapshotCodec, PatternPunctuationGuardRoundTrip) {
  SnapshotWriter w;
  w.WritePattern(P("[*,>=50]"));
  w.WritePunctuation(Punctuation(P("[7,<=9,*]")));
  w.WritePunctuation(Punctuation::Barrier(42));
  GuardSet g;
  g.Add(P("[*,>=50]"));
  g.Add(P("[3,*]"));
  w.WriteGuardSet(g);

  SnapshotReader r(w.buffer());
  PunctPattern p;
  Punctuation punct, barrier;
  GuardSet g2;
  ASSERT_TRUE(r.ReadPattern(&p).ok());
  ASSERT_TRUE(r.ReadPunctuation(&punct).ok());
  ASSERT_TRUE(r.ReadPunctuation(&barrier).ok());
  ASSERT_TRUE(r.ReadGuardSet(&g2).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(p, P("[*,>=50]"));
  EXPECT_EQ(punct.pattern(), P("[7,<=9,*]"));
  EXPECT_FALSE(punct.is_barrier());
  EXPECT_TRUE(barrier.is_barrier());
  EXPECT_EQ(barrier.barrier_id(), 42);
  // Restored guards behave like the originals.
  EXPECT_TRUE(g2.Blocks(TupleBuilder().I64(1).I64(80).Build()));
  EXPECT_TRUE(g2.Blocks(TupleBuilder().I64(3).I64(0).Build()));
  EXPECT_FALSE(g2.Blocks(TupleBuilder().I64(1).I64(2).Build()));
}

TEST(SnapshotCodec, SectionSkipIsolatesUnknownBytes) {
  SnapshotWriter inner;
  inner.WriteU64(777);
  SnapshotWriter w;
  w.WriteSection(inner.buffer());
  w.WriteU32(5);

  // A reader that does not care about the section skips it whole.
  SnapshotReader r(w.buffer());
  std::string_view section;
  ASSERT_TRUE(r.ReadSection(&section).ok());
  EXPECT_EQ(section.size(), sizeof(uint64_t));
  uint32_t tail = 0;
  ASSERT_TRUE(r.ReadU32(&tail).ok());
  EXPECT_EQ(tail, 5u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodec, PageElementsRoundTrip) {
  Page page;
  page.AddTuple(TupleBuilder().I64(1).S("one").Build());
  page.AddTuple(TupleBuilder().I64(2).S("two").Build());
  page.Add(StreamElement::OfPunct(Punctuation(P("[<=2,*]"))));
  page.AddTuple(TupleBuilder().I64(3).S(std::string(100, 'z')).Build());

  SnapshotWriter w;
  WritePageElements(&w, page);
  SnapshotReader r(w.buffer());
  Page back;
  ASSERT_TRUE(ReadPageInto(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(back.size(), page.size());
  const std::vector<StreamElement>& a = page.elements();
  const std::vector<StreamElement>& b = back.elements();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind(), b[i].kind()) << "element " << i;
    if (a[i].is_tuple()) {
      EXPECT_EQ(a[i].tuple(), b[i].tuple()) << "element " << i;
    } else if (a[i].is_punct()) {
      EXPECT_EQ(a[i].punct().pattern(), b[i].punct().pattern());
    }
  }
}

// ---------------------------------------------------------------------------
// File envelope
// ---------------------------------------------------------------------------

TEST(SnapshotFile, RoundTripAndAtomicPublish) {
  const std::string path = TempPath("snap_roundtrip.nsp");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload-bytes-1").ok());
  Result<std::string> r1 = ReadSnapshotFile(path);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1.value(), "payload-bytes-1");

  // Overwrite publishes atomically; the new payload fully replaces.
  ASSERT_TRUE(WriteSnapshotFile(path, "payload-bytes-22").ok());
  Result<std::string> r2 = ReadSnapshotFile(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), "payload-bytes-22");
  std::remove(path.c_str());
}

TEST(SnapshotFile, CorruptionAndTruncationAreDetected) {
  const std::string path = TempPath("snap_corrupt.nsp");
  ASSERT_TRUE(WriteSnapshotFile(path, "some payload to corrupt").ok());

  // Flip one payload byte: CRC must catch it.
  {
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(16 + 3);  // inside the payload, past the 16-byte header
    char c = 0;
    f.seekg(16 + 3);
    f.get(c);
    f.seekp(16 + 3);
    f.put(static_cast<char>(c ^ 0x5A));
  }
  Result<std::string> r = ReadSnapshotFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("corrupted"), std::string::npos);

  // Truncated file (torn write): also a clean error.
  ASSERT_TRUE(WriteSnapshotFile(path, "another payload").ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  r = ReadSnapshotFile(path);
  ASSERT_FALSE(r.ok());

  // Missing file.
  std::remove(path.c_str());
  r = ReadSnapshotFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotFile, OtherVersionIsRejectedAsUnsupported) {
  const std::string path = TempPath("snap_version.nsp");
  ASSERT_TRUE(WriteSnapshotFile(path, "versioned payload").ok());
  // Version 1 is the layout whose IngestSource sections led with a
  // producer-mode flag, and version 2's UnionOp and IngestSource
  // sections lack the punctuation combiner: read as the current layout
  // either would misparse.
  for (uint32_t version : {0u, 1u, 2u, kSnapshotVersion + 1, 0xFFFFFFFFu}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    {
      std::fstream f(path,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(4);  // the version word follows the 4-byte magic
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    Result<std::string> r = ReadSnapshotFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SnapshotFile, CrashTwinNeverClobbersThePublishedSnapshot) {
  const std::string path = TempPath("snap_crash.nsp");
  ASSERT_TRUE(WriteSnapshotFile(path, "good snapshot").ok());

  // Crash before rename: tmp written whole, path untouched.
  Status st = WriteSnapshotFileCrash(path, "newer state",
                                     /*truncate_mid_write=*/false);
  ASSERT_TRUE(st.ok()) << st.ToString();
  Result<std::string> r = ReadSnapshotFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "good snapshot");

  // Crash mid-write: tmp is torn AND unreadable as a snapshot; path
  // still names the last complete one.
  ASSERT_TRUE(WriteSnapshotFileCrash(path, "torn state",
                                     /*truncate_mid_write=*/true)
                  .ok());
  EXPECT_FALSE(ReadSnapshotFile(path + ".tmp").ok());
  r = ReadSnapshotFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "good snapshot");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotFile, ForgedLengthIsRejected) {
  // The u64 payload length at offset 8, forged past the file: near
  // 2^64, where adding the 4-byte CRC wraps, and one byte longer than
  // the file holds.
  const std::string path = TempPath("snap_forged_len.nsp");
  const std::string payload = "payload under a forged length";
  for (uint64_t len : {~uint64_t{0} - 3, ~uint64_t{0},
                       uint64_t{payload.size() + 1}}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    ASSERT_TRUE(WriteSnapshotFile(path, payload).ok());
    {
      std::fstream f(path,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(8);  // after the magic and version words
      f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    }
    Result<std::string> r = ReadSnapshotFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// DataQueue contents
// ---------------------------------------------------------------------------

std::vector<std::string> DrainToStrings(DataQueue* q) {
  std::vector<std::string> out;
  while (std::optional<Page> p = q->TryPopPage()) {
    for (const StreamElement& e : p->elements()) {
      if (e.is_tuple()) {
        out.push_back(e.tuple().ToString());
      } else if (e.is_punct()) {
        out.push_back(e.punct().ToString());
      } else {
        out.push_back("<eos>");
      }
    }
  }
  return out;
}

void QueueContentsRoundTrip(int max_pages) {
  DataQueueOptions opts{/*page_size=*/3, max_pages};
  DataQueue q(opts);
  for (int i = 0; i < 7; ++i) {
    q.PushTuple(TupleBuilder().I64(i).I64(i * 10).Build());
  }
  q.PushPunctuation(Punctuation(P("[<=6,*]")));
  q.PushTuple(TupleBuilder().I64(7).I64(70).Build());  // stays open

  SnapshotWriter w;
  ASSERT_TRUE(q.SnapshotContents(&w).ok());
  // Snapshot is non-destructive: the source queue still drains fully
  // (the open page needs an explicit flush to pop; the snapshot
  // captured it without one).
  q.Flush();
  std::vector<std::string> original = DrainToStrings(&q);
  ASSERT_EQ(original.size(), 9u);

  DataQueue restored(opts);
  SnapshotReader r(w.buffer());
  ASSERT_TRUE(restored.RestoreContents(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(DrainToStrings(&restored), original);
}

TEST(DataQueueSnapshot, SpscChainContentsRoundTrip) {
  QueueContentsRoundTrip(/*max_pages=*/0);
}

TEST(DataQueueSnapshot, SpscRingContentsRoundTrip) {
  QueueContentsRoundTrip(/*max_pages=*/64);
}

TEST(DataQueueSnapshot, EmptyQueueRoundTrip) {
  DataQueueOptions opts;
  DataQueue q(opts);
  SnapshotWriter w;
  ASSERT_TRUE(q.SnapshotContents(&w).ok());
  DataQueue restored(opts);
  SnapshotReader r(w.buffer());
  ASSERT_TRUE(restored.RestoreContents(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(restored.TryPopPage().has_value());
}

// ---------------------------------------------------------------------------
// Operator snapshot → restore → re-snapshot byte equality
// ---------------------------------------------------------------------------

std::string SnapshotOf(Operator* op) {
  SnapshotWriter w;
  Status st = op->SnapshotState(&w);
  EXPECT_TRUE(st.ok()) << op->name() << ": " << st.ToString();
  return w.buffer();
}

void RestoreFrom(Operator* op, const std::string& bytes) {
  SnapshotReader r(bytes);
  Status st = op->RestoreState(&r);
  ASSERT_TRUE(st.ok()) << op->name() << ": " << st.ToString();
  EXPECT_TRUE(r.AtEnd()) << op->name() << ": trailing snapshot bytes";
}

SchemaPtr LeftSchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"t", ValueType::kInt64},
                       {"id", ValueType::kInt64}});
}
SchemaPtr RightSchema() {
  return Schema::Make({{"t", ValueType::kInt64},
                       {"id", ValueType::kInt64},
                       {"b", ValueType::kInt64}});
}

JoinOptions BasicJoin() {
  JoinOptions j;
  j.left_keys = {1, 2};
  j.right_keys = {0, 1};
  return j;
}

std::unique_ptr<SymmetricHashJoin> OpenJoin(const JoinOptions& jo,
                                            ExecContext* ctx) {
  auto join = std::make_unique<SymmetricHashJoin>("join", jo);
  EXPECT_TRUE(join->SetInputSchema(0, LeftSchema()).ok());
  EXPECT_TRUE(join->SetInputSchema(1, RightSchema()).ok());
  EXPECT_TRUE(join->InferSchemas().ok());
  EXPECT_TRUE(join->Open(ctx).ok());
  return join;
}

TEST(JoinSnapshot, RestoreIsByteExactAndBehaviorEquivalent) {
  CollectCtx ctx;
  JoinOptions jo = BasicJoin();
  std::unique_ptr<SymmetricHashJoin> join = OpenJoin(jo, &ctx);

  // Populate both tables, trigger a join, install guards + dedup
  // entries via feedback.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(join->ProcessTuple(
                        0, TupleBuilder().I64(i).I64(i % 5).I64(i % 3).Build())
                    .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(join->ProcessTuple(
                        1, TupleBuilder().I64(i % 5).I64(i % 3).I64(i).Build())
                    .ok());
  }
  ASSERT_TRUE(join->ProcessControl(
                      0, ControlMessage::Feedback(FB("~[*,3,1,*]")))
                  .ok());
  ASSERT_GT(join->table_size(0), 0u);
  ASSERT_GT(join->table_size(1), 0u);

  // An executor flushes staged results before a checkpoint barrier.
  ASSERT_TRUE(join->FlushStaged().ok());
  std::string snap = SnapshotOf(join.get());

  // Restore into a freshly opened twin; its re-snapshot must be
  // byte-identical (canonical serialization).
  CollectCtx ctx2;
  std::unique_ptr<SymmetricHashJoin> twin = OpenJoin(jo, &ctx2);
  RestoreFrom(twin.get(), snap);
  EXPECT_EQ(SnapshotOf(twin.get()), snap);
  EXPECT_EQ(twin->table_size(0), join->table_size(0));
  EXPECT_EQ(twin->table_size(1), join->table_size(1));

  // Same future input → same future output.
  size_t before = ctx.tuples.size();
  Tuple probe = TupleBuilder().I64(4).I64(1).I64(77).Build();
  ASSERT_TRUE(join->ProcessTuple(1, probe).ok());
  ASSERT_TRUE(twin->ProcessTuple(1, probe).ok());
  ASSERT_TRUE(join->FlushStaged().ok());
  ASSERT_TRUE(twin->FlushStaged().ok());
  const std::vector<std::string> all = ctx.TupleStrings();
  std::vector<std::string> orig_new(all.begin() + static_cast<long>(before),
                                    all.end());
  EXPECT_EQ(orig_new, ctx2.TupleStrings());
  EXPECT_FALSE(ctx2.tuples.empty()) << "probe should match stored rows";

  // The restored guard must block exactly like the original's.
  EXPECT_TRUE(twin->input_guards(0).Blocks(
      TupleBuilder().I64(0).I64(3).I64(1).Build()));
}

TEST(JoinSnapshot, ForcedHashCollisionsSurviveRoundTrip) {
  // Constant hash: every key collides, so restore must rebuild the
  // collision-checked buckets, not just hash slots.
  JoinOptions jo = BasicJoin();
  jo.key_hash_override = [](const Tuple&, int, int64_t) {
    return 42ULL;
  };
  CollectCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = OpenJoin(jo, &ctx);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(join->ProcessTuple(
                        0, TupleBuilder().I64(i).I64(i).I64(i).Build())
                    .ok());
  }
  std::string snap = SnapshotOf(join.get());

  CollectCtx ctx2;
  std::unique_ptr<SymmetricHashJoin> twin = OpenJoin(jo, &ctx2);
  RestoreFrom(twin.get(), snap);
  EXPECT_EQ(SnapshotOf(twin.get()), snap);

  // Only the true key (5,5) joins despite universal hash collision.
  ASSERT_TRUE(
      twin->ProcessTuple(1, TupleBuilder().I64(5).I64(5).I64(9).Build())
          .ok());
  ASSERT_TRUE(twin->FlushStaged().ok());
  ASSERT_EQ(ctx2.tuples.size(), 1u);
  EXPECT_EQ(ctx2.tuples[0],
            TupleBuilder().I64(5).I64(5).I64(5).I64(9).Build());
}

TEST(JoinSnapshot, GroupSpanningWindowsKeepsEachWindowsOrder) {
  // One forced hash over two windows, ids falling within each window:
  // the snapshot interleaves the windows by id but keeps each window's
  // rows in insertion order, so a restored join probes them in the
  // original order.
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  jo.left_ts = 1;
  jo.right_ts = 1;
  jo.window_join = true;
  jo.window = WindowSpec{1'000, 1'000};
  jo.key_hash_override = [](const Tuple&, int, int64_t) { return 42ULL; };
  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                   {"ts", ValueType::kTimestamp},
                                   {"v", ValueType::kInt64}});
  auto open_join = [&](ExecContext* ctx) {
    auto j = std::make_unique<SymmetricHashJoin>("span", jo);
    EXPECT_TRUE(j->SetInputSchema(0, schema).ok());
    EXPECT_TRUE(j->SetInputSchema(1, schema).ok());
    EXPECT_TRUE(j->InferSchemas().ok());
    EXPECT_TRUE(j->Open(ctx).ok());
    return j;
  };
  CollectCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = open_join(&ctx);
  const std::pair<TimeMs, int64_t> rows[] = {
      {100, 30}, {1'100, 25}, {200, 10}, {1'200, 5}, {300, 20}};
  for (const auto& [ts, id] : rows) {
    Tuple t = TupleBuilder().I64(1).Ts(ts).I64(id).Build();
    t.set_id(id);
    ASSERT_TRUE(join->ProcessTuple(0, t).ok());
  }
  const std::string snap = SnapshotOf(join.get());
  CollectCtx ctx2;
  std::unique_ptr<SymmetricHashJoin> twin = open_join(&ctx2);
  RestoreFrom(twin.get(), snap);
  EXPECT_EQ(SnapshotOf(twin.get()), snap);
  for (SymmetricHashJoin* j : {join.get(), twin.get()}) {
    for (TimeMs ts : {500, 1'500}) {
      ASSERT_TRUE(
          j->ProcessTuple(1, TupleBuilder().I64(1).Ts(ts).I64(0).Build())
              .ok());
    }
    ASSERT_TRUE(j->FlushStaged().ok());
  }
  ASSERT_EQ(ctx.tuples.size(), 5u);
  EXPECT_EQ(ctx2.TupleStrings(), ctx.TupleStrings());
  std::vector<int64_t> order;
  for (const Tuple& t : ctx2.tuples) order.push_back(t.value(2).int64_value());
  EXPECT_EQ(order, (std::vector<int64_t>{30, 10, 20, 25, 5}));
}

TEST(JoinSnapshot, WindowedOuterJoinStateSurvivesRoundTrip) {
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  jo.left_ts = 1;
  jo.right_ts = 1;
  jo.window_join = true;
  jo.window = WindowSpec{1'000, 1'000};
  jo.left_outer = true;

  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                   {"ts", ValueType::kTimestamp},
                                   {"v", ValueType::kInt64}});
  auto open_join = [&](ExecContext* ctx) {
    auto j = std::make_unique<SymmetricHashJoin>("wjoin", jo);
    EXPECT_TRUE(j->SetInputSchema(0, schema).ok());
    EXPECT_TRUE(j->SetInputSchema(1, schema).ok());
    EXPECT_TRUE(j->InferSchemas().ok());
    EXPECT_TRUE(j->Open(ctx).ok());
    return j;
  };

  CollectCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = open_join(&ctx);
  // Window 0: key 1 matched, key 2 left-unmatched (outer candidate).
  ASSERT_TRUE(join->ProcessTuple(
                      0, TupleBuilder().I64(1).Ts(100).I64(10).Build())
                  .ok());
  ASSERT_TRUE(join->ProcessTuple(
                      0, TupleBuilder().I64(2).Ts(200).I64(20).Build())
                  .ok());
  ASSERT_TRUE(join->ProcessTuple(
                      1, TupleBuilder().I64(1).Ts(300).I64(30).Build())
                  .ok());
  // Advance only the LEFT watermark past window 0: right entries for
  // window 0 purge, left outer candidates wait on the right side.
  ASSERT_TRUE(
      join->ProcessPunctuation(0, Punctuation(P("[*,<=t:999,*]"))).ok());

  std::string snap = SnapshotOf(join.get());
  CollectCtx ctx2;
  std::unique_ptr<SymmetricHashJoin> twin = open_join(&ctx2);
  RestoreFrom(twin.get(), snap);
  EXPECT_EQ(SnapshotOf(twin.get()), snap);

  // Finish both identically: the pending OUTER tuple for key 2 must
  // surface from the restored state too.
  auto finish = [](SymmetricHashJoin* j) {
    ASSERT_TRUE(
        j->ProcessPunctuation(1, Punctuation(P("[*,<=t:999,*]"))).ok());
    ASSERT_TRUE(j->ProcessEos(0).ok());
    ASSERT_TRUE(j->ProcessEos(1).ok());
  };
  size_t before = ctx.tuples.size();
  finish(join.get());
  finish(twin.get());
  const std::vector<std::string> all = ctx.TupleStrings();
  std::vector<std::string> orig_tail(all.begin() + static_cast<long>(before),
                                     all.end());
  EXPECT_EQ(ctx2.TupleStrings(), orig_tail);
  bool saw_outer = false;
  for (const Tuple& t : ctx2.tuples) {
    if (t.value(0).int64_value() == 2) saw_outer = true;
  }
  EXPECT_TRUE(saw_outer)
      << "left-outer candidate for key 2 lost across restore";
}

// ---------------------------------------------------------------------------
// Pinned join snapshot format: bytes captured from the per-key hash-map
// table layout, which the per-window arena tables must reproduce.
// ---------------------------------------------------------------------------

// The pinned-format join: two open windows, keys 1 and 2 forced into
// one hash group across both windows, left-outer matched flags, gated
// left rows, non-inline string payloads, and rows purged by feedback.
JoinOptions PinnedJoinOptions() {
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  jo.left_ts = 1;
  jo.right_ts = 1;
  jo.window_join = true;
  jo.window = WindowSpec{1'000, 1'000};
  jo.left_outer = true;
  jo.left_gate = [](const Tuple& t) {
    return t.value(2).int64_value() % 5 != 4;
  };
  jo.key_hash_override = [](const Tuple& t, int, int64_t wid) {
    const int64_t k = t.value(0).int64_value();
    return k <= 2 ? uint64_t{42}
                  : static_cast<uint64_t>(1000 + 10 * k + wid);
  };
  return jo;
}

std::unique_ptr<SymmetricHashJoin> OpenPinnedJoin(ExecContext* ctx) {
  auto j =
      std::make_unique<SymmetricHashJoin>("pinned", PinnedJoinOptions());
  EXPECT_TRUE(j->SetInputSchema(0, Schema::Make({{"k", ValueType::kInt64},
                                                 {"ts", ValueType::kTimestamp},
                                                 {"v", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(j->SetInputSchema(1, Schema::Make({{"k", ValueType::kInt64},
                                                 {"ts", ValueType::kTimestamp},
                                                 {"s", ValueType::kString}}))
                  .ok());
  EXPECT_TRUE(j->InferSchemas().ok());
  EXPECT_TRUE(j->Open(ctx).ok());
  return j;
}

void FeedPinnedJoin(SymmetricHashJoin* j) {
  for (int i = 0; i < 12; ++i) {
    // Every third row lands in window 1, the rest in window 0.
    const TimeMs ts = i % 3 == 0 ? 1'500 + i : 200 + i;
    Tuple l = TupleBuilder().I64(i % 4 + 1).Ts(ts).I64(i).Build();
    l.set_id(100 + i);
    l.set_arrival_ms(10 * i);
    ASSERT_TRUE(j->ProcessTuple(0, l).ok());
    if (i >= 8) continue;
    Tuple r = TupleBuilder()
                  .I64(i % 3 + 1)
                  .Ts(ts + 7)
                  .S("right-payload-past-inline-" + std::to_string(i))
                  .Build();
    r.set_id(200 + i);
    r.set_arrival_ms(10 * i + 5);
    ASSERT_TRUE(j->ProcessTuple(1, r).ok());
  }
  // Key 3 purges from both inputs; v = 9 purges from the left only.
  ASSERT_TRUE(j->ProcessControl(
                   0, ControlMessage::Feedback(FB("~[3,*,*,*,*]")))
                  .ok());
  ASSERT_TRUE(j->ProcessControl(
                   0, ControlMessage::Feedback(FB("~[*,*,9,*,*]")))
                  .ok());
  // An executor flushes staged results before a checkpoint barrier.
  ASSERT_TRUE(j->FlushStaged().ok());
}

// SnapshotState of FeedPinnedJoin's join, as hex.
constexpr const char* kPinnedJoinSnapshotHex =
    "02000000000000030000002a0000000000000005000000030000000201000000"
    "0000000003dc0500000000000002000000000000000064000000000000000000"
    "000000000000010000000000000001000300000002020000000000000003c900"
    "00000000000002010000000000000065000000000000000a0000000000000000"
    "0000000000000001000300000002010000000000000003cc0000000000000002"
    "0400000000000000680000000000000028000000000000000000000000000000"
    "00010300000002020000000000000003cd000000000000000205000000000000"
    "0069000000000000003200000000000000000000000000000001000300000002"
    "010000000000000003d0000000000000000208000000000000006c0000000000"
    "0000500000000000000000000000000000000000100400000000000002000000"
    "0300000002040000000000000003cf000000000000000207000000000000006b"
    "0000000000000046000000000000000000000000000000000003000000020400"
    "00000000000003d300000000000000020b000000000000006f00000000000000"
    "6e00000000000000000000000000000000001104000000000000010000000300"
    "000002040000000000000003df05000000000000020300000000000000670000"
    "00000000001e0000000000000001000000000000000000020000000300000001"
    "0203000000000000000000030000000000010209000000000000000200000000"
    "0000000000000008000000000000000100000000000000040000000000000000"
    "000000000000000000000000000080010000002a000000000000000600000003"
    "00000002010000000000000003e305000000000000051b00000072696768742d"
    "7061796c6f61642d706173742d696e6c696e652d30c800000000000000050000"
    "0000000000010000000000000001000300000002020000000000000003d00000"
    "0000000000051b00000072696768742d7061796c6f61642d706173742d696e6c"
    "696e652d31c9000000000000000f000000000000000000000000000000010003"
    "00000002010000000000000003e605000000000000051b00000072696768742d"
    "7061796c6f61642d706173742d696e6c696e652d33cb00000000000000230000"
    "0000000000010000000000000001000300000002020000000000000003d30000"
    "0000000000051b00000072696768742d7061796c6f61642d706173742d696e6c"
    "696e652d34cc000000000000002d000000000000000000000000000000010003"
    "00000002010000000000000003e905000000000000051b00000072696768742d"
    "7061796c6f61642d706173742d696e6c696e652d36ce00000000000000410000"
    "0000000000010000000000000001000300000002020000000000000003d60000"
    "0000000000051b00000072696768742d7061796c6f61642d706173742d696e6c"
    "696e652d37cf000000000000004b000000000000000000000000000000010001"
    "0000000300000001020300000000000000000002000000000000000000000005"
    "0000000000000001000000000000000300000000000000000000000000000000"
    "0000000000008000000000000000000000008000000000000000800000000000"
    "0000000000000000000000000000000000000000000000000000000d00000000"
    "00000000000000";

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(JoinSnapshot, PinnedFormatIsByteExact) {
  const std::string pinned = FromHex(kPinnedJoinSnapshotHex);
  CollectCtx ctx;
  std::unique_ptr<SymmetricHashJoin> join = OpenPinnedJoin(&ctx);
  FeedPinnedJoin(join.get());
  ASSERT_EQ(join->table_size(0), 8u);
  ASSERT_EQ(join->table_size(1), 6u);
  EXPECT_EQ(SnapshotOf(join.get()), pinned);

  // Restoring the pinned bytes rebuilds the same state: it re-snapshots
  // to the same bytes and finishes both windows like the original.
  CollectCtx ctx2;
  std::unique_ptr<SymmetricHashJoin> twin = OpenPinnedJoin(&ctx2);
  RestoreFrom(twin.get(), pinned);
  EXPECT_EQ(SnapshotOf(twin.get()), pinned);
  EXPECT_EQ(twin->table_size(0), 8u);
  EXPECT_EQ(twin->table_size(1), 6u);
  auto finish = [](SymmetricHashJoin* j) {
    Tuple probe = TupleBuilder()
                      .I64(2)
                      .Ts(1'600)
                      .S("right-payload-past-inline-probe")
                      .Build();
    ASSERT_TRUE(j->ProcessTuple(1, probe).ok());
    ASSERT_TRUE(
        j->ProcessPunctuation(0, Punctuation(P("[*,<=t:1999,*]"))).ok());
    ASSERT_TRUE(
        j->ProcessPunctuation(1, Punctuation(P("[*,<=t:1999,*]"))).ok());
    ASSERT_TRUE(j->ProcessEos(0).ok());
    ASSERT_TRUE(j->ProcessEos(1).ok());
  };
  const size_t before = ctx.tuples.size();
  finish(join.get());
  finish(twin.get());
  const std::vector<std::string> all = ctx.TupleStrings();
  const std::vector<std::string> orig_tail(
      all.begin() + static_cast<long>(before), all.end());
  EXPECT_EQ(ctx2.TupleStrings(), orig_tail);
  EXPECT_FALSE(orig_tail.empty());
}

TEST(JoinSnapshot, RestoreRejectsRowWhoseHashDisagrees) {
  // The pinned bytes with the left input's first group hash, 42 (the
  // forced group of keys 1 and 2), changed to 43: its five rows still
  // hash to 42, so the restore must refuse them.
  std::string bytes = FromHex(kPinnedJoinSnapshotHex);
  const size_t at = bytes.find(FromHex("2a00000000000000"));
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.substr(at + 8, 4), FromHex("05000000"));
  bytes[at] = 0x2b;
  CollectCtx ctx;
  std::unique_ptr<SymmetricHashJoin> twin = OpenPinnedJoin(&ctx);
  SnapshotReader r(bytes);
  const Status st = twin->RestoreState(&r);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

SchemaPtr GVSchema() {
  return Schema::Make({{"g", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kDouble}});
}

WindowAggregateOptions AggOpt(AggKind kind) {
  WindowAggregateOptions opt;
  opt.ts_attr = 1;
  opt.group_attrs = {0};
  opt.agg_attr = 2;
  opt.kind = kind;
  opt.window = {1'000, 1'000};
  return opt;
}

std::unique_ptr<WindowAggregate> OpenAgg(
    const WindowAggregateOptions& opt, ExecContext* ctx) {
  auto agg = std::make_unique<WindowAggregate>("agg", opt);
  EXPECT_TRUE(agg->SetInputSchema(0, GVSchema()).ok());
  EXPECT_TRUE(agg->InferSchemas().ok());
  EXPECT_TRUE(agg->Open(ctx).ok());
  return agg;
}

TEST(WindowAggregateSnapshot, AllFiveKindsRoundTripByteExact) {
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                       AggKind::kMax, AggKind::kMin}) {
    SCOPED_TRACE(AggKindName(kind));
    WindowAggregateOptions opt = AggOpt(kind);
    CollectCtx ctx;
    std::unique_ptr<WindowAggregate> agg = OpenAgg(opt, &ctx);
    // Partials across three groups and two open windows.
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          agg->ProcessTuple(0, TupleBuilder()
                                   .I64(i % 3)
                                   .Ts(100 * i % 1'900)
                                   .D(static_cast<double>(i % 7))
                                   .Build())
              .ok());
    }
    ASSERT_GT(agg->state_size(), 0u);

    std::string snap = SnapshotOf(agg.get());
    CollectCtx ctx2;
    std::unique_ptr<WindowAggregate> twin = OpenAgg(opt, &ctx2);
    RestoreFrom(twin.get(), snap);
    EXPECT_EQ(SnapshotOf(twin.get()), snap);
    EXPECT_EQ(twin->state_size(), agg->state_size());

    // Identical punctuation closes identical windows with identical
    // results from the restored partials.
    size_t before = ctx.tuples.size();
    ASSERT_TRUE(
        agg->ProcessPunctuation(0, Punctuation(P("[*,<=t:1999,*]")))
            .ok());
    ASSERT_TRUE(
        twin->ProcessPunctuation(0, Punctuation(P("[*,<=t:1999,*]")))
            .ok());
    const std::vector<std::string> all = ctx.TupleStrings();
    std::vector<std::string> orig_tail(all.begin() + static_cast<long>(before),
                                       all.end());
    EXPECT_EQ(ctx2.TupleStrings(), orig_tail);
    EXPECT_FALSE(ctx2.tuples.empty());
  }
}

TEST(WindowAggregateSnapshot, TombstonesSurviveRoundTrip) {
  WindowAggregateOptions opt = AggOpt(AggKind::kMax);
  CollectCtx ctx;
  std::unique_ptr<WindowAggregate> agg = OpenAgg(opt, &ctx);
  ASSERT_TRUE(
      agg->ProcessTuple(0, TupleBuilder().I64(0).Ts(100).D(51).Build())
          .ok());
  // §3.5: MAX may purge on a value bound but must tombstone.
  ASSERT_TRUE(agg->ProcessControl(
                      0, ControlMessage::Feedback(FB("~[*,*,>=50]")))
                  .ok());
  ASSERT_EQ(agg->tombstone_count(), 1u);

  std::string snap = SnapshotOf(agg.get());
  CollectCtx ctx2;
  std::unique_ptr<WindowAggregate> twin = OpenAgg(opt, &ctx2);
  RestoreFrom(twin.get(), snap);
  EXPECT_EQ(SnapshotOf(twin.get()), snap);
  EXPECT_EQ(twin->tombstone_count(), 1u);

  // The §3.5 pitfall must hold ACROSS recovery: a later value-40
  // tuple must not recreate the purged window.
  ASSERT_TRUE(
      twin->ProcessTuple(0, TupleBuilder().I64(0).Ts(200).D(40).Build())
          .ok());
  EXPECT_EQ(twin->state_size(), 0u)
      << "restored tombstone failed to block window recreation";
}

// ---------------------------------------------------------------------------
// Forged counts
// ---------------------------------------------------------------------------

/// Operator::SnapshotState's bytes for an open operator: input count,
/// per-input EOS flags, finished.
void WriteOperatorBase(SnapshotWriter* w, int inputs) {
  w->WriteU32(static_cast<uint32_t>(inputs));
  for (int i = 0; i < inputs; ++i) w->WriteBool(false);
  w->WriteBool(false);
}

/// The join's section up to its impatient-key count.
void WriteJoinUpToFeedbackKeys(SnapshotWriter* w) {
  WriteOperatorBase(w, 2);
  for (int side = 0; side < 2; ++side) {
    w->WriteU32(0);  // key groups
    w->WriteU32(0);  // input guards
    w->WriteU32(0);  // window counts
    w->WriteI64(0);  // min seen window
    w->WriteI64(0);  // watermark
  }
  w->WriteU32(0);  // output guards
  w->WriteI64(0);  // emitted punctuation through
  w->WriteI64(0);  // thrifty checked through
}

TEST(SnapshotRestore, ForgedCountsRejectBeforeAllocating) {
  // Each count is forged to 2^32 - 1 in front of a few bytes: every
  // reader must refuse it before reserving room for that many elements.
  // A reader that reserves first throws std::bad_alloc (or takes the
  // memory); either fails only the case at hand.
  constexpr uint32_t kForged = 0xFFFFFFFFu;
  auto pad = [](SnapshotWriter* w) {
    for (int i = 0; i < 8; ++i) w->WriteU64(0);
  };
  auto expect_rejected = [](const std::function<Status()>& restore) {
    try {
      const Status st = restore();
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    } catch (const std::bad_alloc&) {
      ADD_FAILURE() << "reserved for the forged count before rejecting it";
    }
  };
  auto restore_join = [](const SnapshotWriter& w) {
    CollectCtx ctx;
    std::unique_ptr<SymmetricHashJoin> join = OpenJoin(BasicJoin(), &ctx);
    SnapshotReader r(w.buffer());
    return join->RestoreState(&r);
  };
  auto restore_agg = [](const SnapshotWriter& w) {
    CollectCtx ctx;
    std::unique_ptr<WindowAggregate> agg =
        OpenAgg(AggOpt(AggKind::kSum), &ctx);
    SnapshotReader r(w.buffer());
    return agg->RestoreState(&r);
  };
  {
    SCOPED_TRACE("page element count");
    SnapshotWriter w;
    w.WriteU32(kForged);
    pad(&w);
    expect_rejected([&] {
      SnapshotReader r(w.buffer());
      Page page;
      return ReadPageInto(&r, &page);
    });
  }
  for (int forged_set = 0; forged_set < 2; ++forged_set) {
    SCOPED_TRACE(forged_set == 0 ? "join impatient key count"
                                 : "join gate key count");
    SnapshotWriter w;
    WriteJoinUpToFeedbackKeys(&w);
    if (forged_set == 1) w.WriteU32(0);
    w.WriteU32(kForged);
    pad(&w);
    expect_rejected([&] { return restore_join(w); });
  }
  {
    SCOPED_TRACE("aggregate state count");
    SnapshotWriter w;
    WriteOperatorBase(&w, 1);
    w.WriteU32(kForged);
    pad(&w);
    expect_rejected([&] { return restore_agg(w); });
  }
  {
    SCOPED_TRACE("aggregate group count inside a state key");
    SnapshotWriter key;
    key.WriteI64(0);  // window id
    key.WriteU32(kForged);
    SnapshotWriter w;
    WriteOperatorBase(&w, 1);
    w.WriteU32(1);
    w.WriteSection(key.buffer());
    pad(&w);
    expect_rejected([&] { return restore_agg(w); });
  }
  {
    SCOPED_TRACE("aggregate tombstone count");
    SnapshotWriter w;
    WriteOperatorBase(&w, 1);
    w.WriteU32(0);  // states
    w.WriteU32(kForged);
    pad(&w);
    expect_rejected([&] { return restore_agg(w); });
  }
  {
    SCOPED_TRACE("aggregate purge pattern count");
    SnapshotWriter w;
    WriteOperatorBase(&w, 1);
    w.WriteU32(0);  // states
    w.WriteU32(0);  // tombstones
    w.WriteU32(0);  // group guards
    w.WriteU32(0);  // output guards
    w.WriteU32(kForged);
    pad(&w);
    expect_rejected([&] { return restore_agg(w); });
  }
}

// ---------------------------------------------------------------------------
// Source offsets
// ---------------------------------------------------------------------------

TEST(SourceSnapshot, VectorSourceResumesFromRecordedOffset) {
  auto make_elements = [] {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 10; ++i) {
      tuples.push_back(TupleBuilder().I64(i).I64(i * 2).Build());
    }
    return testing_util::AtMillis(std::move(tuples));
  };
  SchemaPtr schema = Schema::Make(
      {{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});

  CollectCtx ctx;
  VectorSource src("src", schema, make_elements());
  ASSERT_TRUE(src.Open(&ctx).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(src.ProduceNext().ok());
  ASSERT_EQ(src.position(), 4u);
  std::string snap = SnapshotOf(&src);

  CollectCtx ctx2;
  VectorSource twin("src", schema, make_elements());
  ASSERT_TRUE(twin.Open(&ctx2).ok());
  RestoreFrom(&twin, snap);
  EXPECT_EQ(twin.position(), 4u);
  EXPECT_EQ(SnapshotOf(&twin), snap);

  // The twin replays exactly the uneroded tail.
  while (twin.NextArrivalMs().has_value()) {
    ASSERT_TRUE(twin.ProduceNext().ok());
  }
  ASSERT_EQ(ctx2.tuples.size(), 6u);
  EXPECT_EQ(ctx2.tuples[0].value(0).int64_value(), 4);

  // An offset beyond the element count is rejected (wrong plan).
  VectorSource shorty("src", schema,
                      testing_util::AtMillis(
                          {TupleBuilder().I64(0).I64(0).Build()}));
  ASSERT_TRUE(shorty.Open(&ctx2).ok());
  SnapshotReader r(snap);
  EXPECT_FALSE(shorty.RestoreState(&r).ok());
}

TEST(SourceSnapshot, CallbackSourceFastForwardsItsGenerator) {
  SchemaPtr schema = Schema::Make(
      {{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
  auto make_gen = [] {
    auto i = std::make_shared<int64_t>(0);
    return [i]() -> std::optional<TimedElement> {
      if (*i >= 8) return std::nullopt;
      int64_t k = (*i)++;
      return TimedElement::OfTuple(
          k, TupleBuilder().I64(k).I64(k * k).Build());
    };
  };

  CollectCtx ctx;
  CallbackSource src("cb", schema, make_gen());
  ASSERT_TRUE(src.Open(&ctx).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(src.ProduceNext().ok());
  ASSERT_EQ(src.produced(), 5u);
  std::string snap = SnapshotOf(&src);

  CollectCtx ctx2;
  CallbackSource twin("cb", schema, make_gen());
  ASSERT_TRUE(twin.Open(&ctx2).ok());
  RestoreFrom(&twin, snap);
  EXPECT_EQ(twin.produced(), 5u);
  EXPECT_EQ(SnapshotOf(&twin), snap);
  while (twin.NextArrivalMs().has_value()) {
    ASSERT_TRUE(twin.ProduceNext().ok());
  }
  ASSERT_EQ(ctx2.tuples.size(), 3u);
  EXPECT_EQ(ctx2.tuples[0].value(0).int64_value(), 5);
  // Replayed ids continue the original numbering: at-least-once
  // dedup by id stays possible downstream.
  EXPECT_EQ(ctx2.tuples[0].id(), ctx.tuples.back().id() + 1);

  // A generator too short for the recorded offset is rejected.
  auto short_gen = [n = std::make_shared<int64_t>(0)]() mutable
      -> std::optional<TimedElement> {
    if (*n >= 2) return std::nullopt;
    int64_t k = (*n)++;
    return TimedElement::OfTuple(
        k, TupleBuilder().I64(k).I64(k).Build());
  };
  CallbackSource bad("cb", schema, short_gen);
  ASSERT_TRUE(bad.Open(&ctx2).ok());
  SnapshotReader r(snap);
  EXPECT_FALSE(bad.RestoreState(&r).ok());
}

}  // namespace
}  // namespace nstream
