// Streamed snapshot writes: a checkpoint reaches its file through one
// spill buffer (ByteWriter + ByteSink), with section lengths patched
// in place once their bytes have spilled. Pinned here: the file is
// byte-identical to the envelope the whole-payload writer used to build
// in memory (a frozen copy below), both crash seams behave at size,
// the heap grows by a fraction of the payload, and a failed write
// leaves no tmp file behind.
//
// This binary replaces the global operator new/delete with counting
// versions, so HeapGrowthStaysUnderHalfThePayload can read the live
// heap's peak across one WriteSnapshot.

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "recovery/checkpoint.h"
#include "recovery/snapshot.h"
#include "testing/sched_harness.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace nstream {
namespace {

using testing_util::SchedHarness;

constexpr uint64_t kBlock = ByteWriter::kSpillBytes;

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool Exists(const std::string& path) {
  struct stat sb;
  return ::stat(path.c_str(), &sb) == 0;
}

/// Offset of the first differing byte, for a readable failure on
/// multi-MiB buffers.
size_t FirstDifference(std::string_view a, std::string_view b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

// ---- The writer the streamed one replaced, frozen ------------------
//
// Each operator and queue section built in its own writer and copied
// into the payload, the payload copied into the envelope, and the CRC
// appended: the bytes the streamed writer must reproduce.

std::string FrozenEnvelope(QueryPlan* plan, PlanRuntime* rt) {
  SnapshotWriter w;
  const int n = plan->num_operators();
  w.WriteU32(static_cast<uint32_t>(n));
  for (int64_t id = 0; id < n; ++id) {
    const Operator* op = plan->op(id);
    w.WriteString(op->name());
    w.WriteU32(static_cast<uint32_t>(op->num_inputs()));
    w.WriteU32(static_cast<uint32_t>(op->num_outputs()));
  }
  for (int64_t id = 0; id < n; ++id) {
    SnapshotWriter ow;
    EXPECT_TRUE(plan->op(id)->SnapshotState(&ow).ok());
    w.WriteSection(ow.buffer());
  }
  const auto& conns = rt->connections();
  w.WriteU32(static_cast<uint32_t>(conns.size()));
  for (const auto& conn : conns) {
    SnapshotWriter qw;
    EXPECT_TRUE(conn->data->SnapshotContents(&qw).ok());
    w.WriteSection(qw.buffer());
  }
  const std::string payload = w.Release();

  SnapshotWriter e;
  e.WriteU32(kSnapshotMagic);
  e.WriteU32(kSnapshotVersion);
  e.WriteU64(payload.size());
  std::string bytes = e.Release();
  bytes.append(payload);
  const uint32_t crc = SnapshotCrc32(payload);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

// ---- The Table 2 join at a cut -------------------------------------

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

/// `2 * rows` tuples with distinct t, so left i joins only right i.
/// Under paced sources the first `rows` are due at once and the rest
/// only at kLater, so a drive that stops while the plan waits for them
/// leaves exactly `rows` rows per join side.
constexpr TimeMs kLater = TimeMs{1} << 40;

std::vector<TimedElement> SideStream(int rows, bool left) {
  std::vector<TimedElement> out;
  out.reserve(2 * static_cast<size_t>(rows));
  for (int i = 0; i < 2 * rows; ++i) {
    Tuple t = left ? TupleBuilder().I64(i % 100).I64(i).I64(i % 7).Build()
                   : TupleBuilder().I64(i).I64(i % 7).I64(i % 100).Build();
    const TimeMs at = i < rows ? 0 : kLater;
    out.push_back(TimedElement::OfTuple(at, std::move(t)));
  }
  return out;
}

testing_util::SchedHarnessOptions Paced() {
  testing_util::SchedHarnessOptions opts;
  opts.sched.pace_sources = true;
  return opts;
}

/// The Table 2 join holding `left_rows` / `right_rows` rows per side,
/// mid-run under the manual scheduler: nothing runs between calls, so
/// the plan is quiescent. `rt` holds fresh edges for the queue
/// sections, the first carrying `queued` tuples.
class JoinAtCut {
 public:
  JoinAtCut(int rows, int queued) : JoinAtCut(rows, rows, queued) {}
  JoinAtCut(int left_rows, int right_rows, int queued)
      : plan_(std::make_unique<QueryPlan>()), harness_(Paced()) {
    auto* left = plan_->AddOp(std::make_unique<VectorSource>(
        "A", LeftSchema(), SideStream(left_rows, true)));
    auto* right = plan_->AddOp(std::make_unique<VectorSource>(
        "B", RightSchema(), SideStream(right_rows, false)));
    JoinOptions jo;
    jo.left_keys = {1, 2};   // (t, id)
    jo.right_keys = {0, 1};  // (t, id)
    auto* join =
        plan_->AddOp(std::make_unique<SymmetricHashJoin>("join", jo));
    auto* sink = plan_->AddOp(std::make_unique<CollectorSink>(
        "sink", CollectorSinkOptions{.record_tuples = false}));
    EXPECT_TRUE(plan_->Connect(*left, 0, *join, 0).ok());
    EXPECT_TRUE(plan_->Connect(*right, 0, *join, 1).ok());
    EXPECT_TRUE(plan_->Connect(*join, *sink).ok());
    Result<QueryId> id = harness_.scheduler()->Submit(plan_.get());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    while (join->stats().tuples_in <
           static_cast<uint64_t>(left_rows) + right_rows) {
      Result<bool> done = harness_.DriveFor(1);
      EXPECT_TRUE(done.ok() && !done.value());
      if (!done.ok() || done.value()) break;
    }
    EXPECT_EQ(join->table_size(0), static_cast<size_t>(left_rows));
    EXPECT_EQ(join->table_size(1), static_cast<size_t>(right_rows));
    Result<std::unique_ptr<PlanRuntime>> rt =
        PlanRuntime::Create(plan_.get(), DataQueueOptions{});
    EXPECT_TRUE(rt.ok()) << rt.status().ToString();
    rt_ = rt.MoveValue();
    DataQueue* edge = rt_->connections()[0]->data.get();
    for (int i = 0; i < queued; ++i) {
      edge->PushTuple(TupleBuilder().I64(i % 100).I64(-i).I64(i % 7).Build());
    }
  }

  QueryPlan* plan() { return plan_.get(); }
  PlanRuntime* rt() { return rt_.get(); }

  Status Checkpoint(const CheckpointOptions& opts) {
    return CheckpointCoordinator::WriteSnapshot(plan_.get(), rt_.get(), opts);
  }

 private:
  std::unique_ptr<QueryPlan> plan_;
  SchedHarness harness_;
  std::unique_ptr<PlanRuntime> rt_;
};

// 30 k rows per side: a ~4 MiB payload. Besides the spill buffer, the
// heap a checkpoint takes is the join's own sort index (24 B per row of
// the larger side, sized once): ~0.3x the payload.
constexpr int kLargeRows = 30'000;

// ---------------------------------------------------------------------------
// The spilling writer
// ---------------------------------------------------------------------------

/// Collects a spilling writer's bytes in memory.
class StringSink final : public ByteSink {
 public:
  void Append(std::string_view bytes) override { out.append(bytes); }
  void PatchU32(uint64_t offset, uint32_t v) override {
    ASSERT_LE(offset + sizeof(v), out.size());
    std::memcpy(&out[offset], &v, sizeof(v));
    ++patches;
  }
  std::string out;
  int patches = 0;
};

TEST(StreamedSnapshot, SpillingWriterMatchesInMemoryBytes) {
  // The same stream twice: nested in-memory sections copied in with
  // WriteSection, and sections written in place with Begin/EndSection
  // through a sink. Sections span several spills, nest, and hold a raw
  // string too big for the buffer.
  const std::string big(3 * kBlock + 17, 'x');
  SnapshotWriter inner_small, inner_big, nested;
  inner_small.WriteU64(7);
  nested.WriteString("nested");
  for (int i = 0; i < 40'000; ++i) nested.WriteI64(i);
  inner_big.WriteSection(nested.buffer());
  inner_big.WriteString(big);
  SnapshotWriter mem;
  mem.WriteU32(1);
  mem.WriteSection(inner_small.buffer());
  mem.WriteSection(inner_big.buffer());
  mem.WriteSection("");

  StringSink sink;
  SnapshotWriter w(&sink);
  auto check_buffer = [&] { ASSERT_LE(w.buffer().size(), kBlock); };
  w.WriteU32(1);
  uint64_t mark = w.BeginSection();
  w.WriteU64(7);
  w.EndSection(mark);
  mark = w.BeginSection();
  const uint64_t inner = w.BeginSection();
  w.WriteString("nested");
  for (int i = 0; i < 40'000; ++i) {
    w.WriteI64(i);
    check_buffer();
  }
  w.EndSection(inner);
  w.WriteString(big);
  check_buffer();
  w.EndSection(mark);
  w.EndSection(w.BeginSection());
  EXPECT_EQ(w.size(), mem.size());
  w.Flush();
  EXPECT_TRUE(w.buffer().empty());
  EXPECT_EQ(sink.patches, 2) << "both long sections patch through the sink";
  ASSERT_EQ(sink.out.size(), mem.buffer().size());
  EXPECT_TRUE(sink.out == mem.buffer())
      << "first difference at byte "
      << FirstDifference(sink.out, mem.buffer());

  // Without a sink, Begin/EndSection patch in memory.
  SnapshotWriter local;
  local.WriteU32(1);
  const uint64_t m = local.BeginSection();
  local.WriteU64(7);
  local.EndSection(m);
  SnapshotWriter expected;
  expected.WriteU32(1);
  expected.WriteSection(inner_small.buffer());
  EXPECT_EQ(local.buffer(), expected.buffer());
}

TEST(StreamedSnapshot, CrcChainsAcrossBlocks) {
  EXPECT_EQ(SnapshotCrc32("123456789"), 0xCBF43926u);  // the check value
  EXPECT_EQ(SnapshotCrc32("6789", SnapshotCrc32("12345")), 0xCBF43926u);
  EXPECT_EQ(SnapshotCrc32("", SnapshotCrc32("123456789")), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// Whole checkpoints
// ---------------------------------------------------------------------------

TEST(StreamedSnapshot, FileMatchesTheInMemoryEnvelope) {
  struct Case {
    int rows;
    int queued;
    bool spans_blocks;
  };
  for (const Case& c : {Case{kLargeRows, 20'000, true},
                        Case{100, 10, false}}) {
    SCOPED_TRACE("rows=" + std::to_string(c.rows));
    JoinAtCut j(c.rows, c.queued);
    const std::string expected = FrozenEnvelope(j.plan(), j.rt());
    if (c.spans_blocks) {
      ASSERT_GE(expected.size(), 16 * kBlock);
    } else {
      ASSERT_LT(expected.size(), kBlock);
    }
    const std::string path = TempPath("stream_match.nsp");
    Status st = j.Checkpoint(CheckpointOptions{path});
    ASSERT_TRUE(st.ok()) << st.ToString();
    const std::string file = FileBytes(path);
    ASSERT_EQ(file.size(), expected.size());
    EXPECT_TRUE(file == expected)
        << "first difference at byte " << FirstDifference(file, expected);
    EXPECT_FALSE(Exists(path + ".tmp"));
    std::remove(path.c_str());
  }
}

TEST(StreamedSnapshot, CrashModesAtSize) {
  JoinAtCut j(kLargeRows, 0);
  const std::string expected = FrozenEnvelope(j.plan(), j.rt());
  ASSERT_GE(expected.size(), 16 * kBlock);
  const std::string path = TempPath("stream_crash.nsp");
  const std::string tmp = path + ".tmp";
  ASSERT_TRUE(WriteSnapshotFile(path, "previous snapshot").ok());

  // Mid-write: a torn tmp file that no reader accepts.
  Status st = j.Checkpoint(
      CheckpointOptions{path, CheckpointCrashMode::kMidWrite});
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  ASSERT_TRUE(Exists(tmp));
  EXPECT_EQ(FileBytes(tmp).size(), expected.size() / 2);
  Result<std::string> torn = ReadSnapshotFile(tmp);
  EXPECT_FALSE(torn.ok());
  Result<std::string> prev = ReadSnapshotFile(path);
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  EXPECT_EQ(prev.value(), "previous snapshot");

  // Before rename: the complete envelope, never published.
  st = j.Checkpoint(
      CheckpointOptions{path, CheckpointCrashMode::kBeforeRename});
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_TRUE(FileBytes(tmp) == expected);
  Result<std::string> whole = ReadSnapshotFile(tmp);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  prev = ReadSnapshotFile(path);
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  EXPECT_EQ(prev.value(), "previous snapshot");
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

/// Checkpoints `j` and checks the live heap grew by at most half the
/// payload while the snapshot was written.
void ExpectHeapGrowthUnderHalfThePayload(JoinAtCut* j,
                                         const std::string& stem) {
  const CheckpointOptions opts{TempPath(stem)};
  const int64_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  Status st = j->Checkpoint(opts);
  const int64_t growth = g_peak_bytes.load() - before;
  ASSERT_TRUE(st.ok()) << st.ToString();
  Result<std::string> payload = ReadSnapshotFile(opts.path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const auto size = static_cast<int64_t>(payload.value().size());
  ASSERT_GE(size, int64_t{2} << 20);
  EXPECT_LE(growth, size / 2)
      << "heap grew " << growth << " B while writing a " << size
      << " B payload";
  std::printf("heap growth %.3f x payload (%lld B over %lld B)\n",
              static_cast<double>(growth) / static_cast<double>(size),
              static_cast<long long>(growth), static_cast<long long>(size));
  std::remove(opts.path.c_str());
}

TEST(StreamedSnapshot, HeapGrowthStaysUnderHalfThePayload) {
  JoinAtCut j(kLargeRows, 0);
  ExpectHeapGrowthUnderHalfThePayload(&j, "stream_heap.nsp");
}

TEST(StreamedSnapshot, UnevenSidesSizeTheSortIndexOnce) {
  // The right side is past 2^15 rows and the left is not: an index
  // grown by doubling per side would hold 2^15 and 2^16 entries at its
  // peak (0.55x the payload).
  JoinAtCut j(29'824, 33'664, 0);
  ExpectHeapGrowthUnderHalfThePayload(&j, "stream_heap_uneven.nsp");
}

TEST(StreamedSnapshot, UnwritablePathFailsCleanly) {
  JoinAtCut j(100, 0);
  const std::string path = TempPath("no_such_dir/snap.nsp");
  Status st = j.Checkpoint(CheckpointOptions{path});
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
  EXPECT_FALSE(Exists(path));
  EXPECT_FALSE(WriteSnapshotFile(path, "payload").ok());
  EXPECT_FALSE(Exists(path + ".tmp"));
}

TEST(StreamedSnapshot, PayloadErrorRemovesTheTmpFile) {
  // A section codec failing after several spills: the tmp file goes,
  // the published snapshot stays.
  const std::string path = TempPath("stream_fail.nsp");
  ASSERT_TRUE(WriteSnapshotFile(path, "previous snapshot").ok());
  Status st = StreamSnapshotFile(
      path, CheckpointCrashMode::kNone, [](SnapshotWriter* w) {
        for (uint64_t i = 0; i < 4 * kBlock; i += 8) w->WriteU64(i);
        return Status::Internal("codec failed");
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_FALSE(Exists(path + ".tmp"));
  Result<std::string> prev = ReadSnapshotFile(path);
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  EXPECT_EQ(prev.value(), "previous snapshot");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nstream
