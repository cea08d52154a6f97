// TupleArena / arena-backed Tuple/Value invariants: bump allocation,
// the process-wide chunk reserve (residency, reuse, no chunk handed
// out twice, ASan poisoning of returned chunks), borrowed-string
// semantics (copy promotes, equality/hash agree with owned strings),
// ownership-mode transitions (Append conversion, Promote, Rehome), and
// the page-level ownership invariant behind the wholesale arena free.

#include "types/tuple_arena.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stream/page.h"
#include "types/tuple.h"
#include "types/value.h"

namespace nstream {
namespace {

TEST(TupleArenaTest, BumpAllocationAlignmentAndGrowth) {
  TupleArena arena;
  EXPECT_EQ(arena.chunk_count(), 0u);
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(arena.chunk_count(), 1u);
  // Exceed the first chunk: a new chunk appears; old pointers stay
  // valid (chunks are never reallocated).
  std::memset(a, 0xAB, 3);
  for (int i = 0; i < 64; ++i) arena.Allocate(1024, 8);
  EXPECT_GE(arena.chunk_count(), 2u);
  EXPECT_EQ(static_cast<unsigned char*>(a)[0], 0xAB);
  EXPECT_GE(arena.bytes_used(), 64u * 1024u);
}

TEST(TupleArenaTest, OversizedAllocationGetsDedicatedChunk) {
  TupleArena arena;
  void* big = arena.Allocate(2 * TupleArena::kChunkBytes, 8);
  EXPECT_NE(big, nullptr);
  // Small allocations continue to work afterwards.
  void* small = arena.Allocate(16, 8);
  EXPECT_NE(small, nullptr);
}

uint64_t Takes(const ChunkReserveStats& s) {
  return s.carved + s.idle_hits + s.retaken;
}

TEST(TupleArenaTest, ChunkSizedAllocationTakesAStandardChunk) {
  // A chunk's base already has kChunkAlign, so a request of exactly one
  // chunk at that alignment needs no slack: it fills a standard chunk
  // from the reserve. The bump cursor stays in the chunk with more
  // room, so the small requests before and after it share one chunk.
  const ChunkReserveStats before = GetChunkReserveStats();
  char* standard[2] = {nullptr, nullptr};
  {
    TupleArena arena;
    arena.Allocate(8, 8);
    void* whole =
        arena.Allocate(TupleArena::kChunkBytes, TupleArena::kChunkAlign);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(whole) % TupleArena::kChunkAlign,
              0u);
    arena.Allocate(8, 8);
    EXPECT_EQ(arena.chunk_count(), 2u);
    // A stricter alignment still needs slack: a dedicated heap block,
    // which the reserve never sees.
    arena.Allocate(TupleArena::kChunkBytes - 8,
                   2 * TupleArena::kChunkAlign);
    EXPECT_EQ(arena.chunk_count(), 3u);
    standard[0] = arena.chunk(0);
    standard[1] = arena.chunk(1);
  }
  EXPECT_EQ(Takes(GetChunkReserveStats()) - Takes(before), 2u);
  // The two standard chunks went back to the reserve: the next takes
  // that are not served fresh from a slab hand them out again.
  TupleArena again;
  std::set<char*> seen;
  const uint64_t carved = GetChunkReserveStats().carved;
  while (GetChunkReserveStats().carved == carved &&
         !(seen.count(standard[0]) && seen.count(standard[1]))) {
    again.Allocate(TupleArena::kChunkBytes, TupleArena::kChunkAlign);
    seen.insert(again.chunk(again.chunk_count() - 1));
  }
  EXPECT_EQ(seen.count(standard[0]), 1u);
  EXPECT_EQ(seen.count(standard[1]), 1u);
}

// Whether any page of `chunk` is resident.
bool AnyPageResident(const char* chunk) {
  const auto page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec(TupleArena::kChunkBytes / page);
  EXPECT_EQ(::mincore(const_cast<char*>(chunk), TupleArena::kChunkBytes,
                      vec.data()),
            0);
  for (unsigned char v : vec) {
    if ((v & 1) != 0) return true;
  }
  return false;
}

TEST(ChunkReserveTest, ChunksPastTheIdleCapLeaveMemoryAndComeBackFirst) {
  // More chunks than the reserve keeps idle (128) come back at once:
  // the reserve keeps what fits idle and resident, and gives the pages
  // of the rest back to the kernel. Those released chunks are taken
  // again before any new slab is mapped.
  constexpr int kChunks = 192;
  std::set<char*> all;
  auto arena = std::make_unique<TupleArena>();
  for (int i = 0; i < kChunks; ++i) {
    auto* p = static_cast<char*>(
        arena->Allocate(TupleArena::kChunkBytes, TupleArena::kChunkAlign));
    std::memset(p, 0x5A, TupleArena::kChunkBytes);  // every page resident
    all.insert(p);
  }
  ASSERT_EQ(all.size(), static_cast<size_t>(kChunks));
  for (char* c : all) ASSERT_TRUE(AnyPageResident(c));
  const ChunkReserveStats before = GetChunkReserveStats();
  arena.reset();
  const ChunkReserveStats after = GetChunkReserveStats();
  const uint64_t released = after.released - before.released;
  EXPECT_GT(released, 0u);
  EXPECT_LE(released, static_cast<uint64_t>(kChunks));
  std::set<char*> gone;
  for (char* c : all) {
    if (!AnyPageResident(c)) gone.insert(c);
  }
  EXPECT_EQ(gone.size(), released);

  // Take chunks until every released one is back, or a slab is carved.
  TupleArena again;
  std::set<char*> back;
  while (GetChunkReserveStats().carved == after.carved &&
         back.size() < gone.size()) {
    auto* p = static_cast<char*>(
        again.Allocate(TupleArena::kChunkBytes, TupleArena::kChunkAlign));
    p[0] = 1;
    if (gone.count(p) != 0) back.insert(p);
  }
  const ChunkReserveStats last = GetChunkReserveStats();
  EXPECT_EQ(back, gone);
  EXPECT_EQ(last.slabs, after.slabs);
  EXPECT_EQ(last.carved, after.carved);
  EXPECT_EQ(last.retaken - after.retaken, released);
}

TEST(ChunkReserveTest, ConcurrentTakersNeverHoldTheSameChunk) {
  // Two threads take and return chunks through arenas, each more per
  // round than the reserve keeps idle (128), so every return both parks
  // and releases chunks while the other thread may be taking. Each
  // registers the chunks it holds and stamps every page with its mark;
  // a chunk handed to both at once would be registered twice or show
  // the other mark.
  constexpr int kRounds = 40;
  constexpr int kChunks = 160;
  std::mutex mu;
  std::set<const char*> held;
  const auto page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  auto run = [&](uint64_t mark) {
    for (int r = 0; r < kRounds; ++r) {
      TupleArena arena;
      for (int i = 0; i < kChunks; ++i) {
        arena.Allocate(TupleArena::kChunkBytes, TupleArena::kChunkAlign);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        for (int i = 0; i < kChunks; ++i) {
          EXPECT_TRUE(held.insert(arena.chunk(i)).second)
              << "chunk handed out twice";
        }
      }
      for (int i = 0; i < kChunks; ++i) {
        for (size_t at = 0; at < TupleArena::kChunkBytes; at += page) {
          std::memcpy(arena.chunk(i) + at, &mark, sizeof(mark));
        }
      }
      for (int i = 0; i < kChunks; ++i) {
        for (size_t at = 0; at < TupleArena::kChunkBytes; at += page) {
          uint64_t seen = 0;
          std::memcpy(&seen, arena.chunk(i) + at, sizeof(seen));
          EXPECT_EQ(seen, mark);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (int i = 0; i < kChunks; ++i) held.erase(arena.chunk(i));
    }
  };
  const ChunkReserveStats before = GetChunkReserveStats();
  std::thread a(run, 0xA1A1A1A1A1A1A1A1ULL);
  std::thread b(run, 0xB2B2B2B2B2B2B2B2ULL);
  a.join();
  b.join();
  const ChunkReserveStats after = GetChunkReserveStats();
  EXPECT_EQ(Takes(after) - Takes(before),
            static_cast<uint64_t>(2 * kRounds * kChunks));
  EXPECT_GT(after.released, before.released);
  EXPECT_TRUE(held.empty());
}

#if defined(__SANITIZE_ADDRESS__)
TEST(ChunkReserveDeathTest, ReadThroughADeadPagesArenaReports) {
  // A page's arena gives its chunks back to the reserve, which keeps
  // them mapped; ASan still reports a read of a tuple's string through
  // the dead page's arena, because a returned chunk is poisoned.
  const auto read_after_page = [] {
    std::string_view bytes;
    {
      Page page;
      Tuple t(page.arena(), 1);
      t.Append(Value::StringIn(page.arena(), "bytes kept in the arena"));
      bytes = t.value(0).string_view();
      page.Add(StreamElement::OfTuple(std::move(t)));
    }
    volatile char c = bytes[0];
    (void)c;
  };
  EXPECT_DEATH(read_after_page(), "use-after-poison");
}
#endif

TEST(TupleArenaTest, CopyStringBorrowsArenaBytes) {
  TupleArena arena;
  std::string src = "hello arena";
  std::string_view sv = arena.CopyString(src);
  src[0] = 'X';  // the arena copy is independent of the source
  EXPECT_EQ(sv, "hello arena");
  EXPECT_EQ(arena.CopyString("").size(), 0u);
}

TEST(BorrowedValueTest, EqualityHashAndCompareAgreeWithOwned) {
  TupleArena arena;
  // Longer than Value::kInlineCap so the arena copy actually borrows.
  Value owned = Value::String("stream-attribute");
  Value borrowed = Value::StringIn(&arena, "stream-attribute");
  EXPECT_TRUE(borrowed.is_borrowed_string());
  EXPECT_FALSE(owned.is_borrowed_string());
  EXPECT_EQ(owned.type(), ValueType::kString);
  EXPECT_EQ(borrowed.type(), ValueType::kString);
  EXPECT_TRUE(owned == borrowed);
  EXPECT_TRUE(borrowed == owned);
  EXPECT_EQ(owned.Hash(), borrowed.Hash());
  int c = 99;
  ASSERT_TRUE(borrowed.TryCompare(Value::String("stream-attribute!"), &c));
  EXPECT_LT(c, 0);
  EXPECT_EQ(borrowed.ToString(), owned.ToString());
  EXPECT_EQ(borrowed.string_view(), owned.string_view());
  // Short strings skip the arena entirely: inline representation,
  // equal to and hash-compatible with both other representations.
  Value inlined = Value::StringIn(&arena, "stream");
  EXPECT_TRUE(inlined.is_inline_string());
  EXPECT_FALSE(inlined.is_borrowed_string());
  EXPECT_TRUE(inlined.is_trivially_destructible_rep());
  EXPECT_TRUE(inlined == Value::String("stream"));
  EXPECT_EQ(inlined.Hash(), Value::String("stream").Hash());
  EXPECT_EQ(inlined.Hash(),
            Value::BorrowedString(arena.CopyString("stream")).Hash());
}

TEST(BorrowedValueTest, CopyPromotesMovePreserves) {
  TupleArena arena;
  // Past the inline cap, so StringIn actually borrows arena bytes.
  Value borrowed = Value::StringIn(&arena, "escape-safe-arena-bytes");
  ASSERT_TRUE(borrowed.is_borrowed_string());
  Value copy = borrowed;  // deep copy: owned
  EXPECT_FALSE(copy.is_borrowed_string());
  EXPECT_TRUE(copy == borrowed);
  Value assigned;
  assigned = borrowed;
  EXPECT_FALSE(assigned.is_borrowed_string());
  Value moved = std::move(borrowed);  // move: still borrowing
  EXPECT_TRUE(moved.is_borrowed_string());
  EXPECT_EQ(moved.string_view(), "escape-safe-arena-bytes");
}

TEST(BorrowedValueTest, StringInNullArenaFallsBackToSelfContained) {
  // No arena: a short string inlines, a long one owns heap bytes —
  // either way the value is self-contained (never borrowing).
  Value short_v = Value::StringIn(nullptr, "fallback");
  EXPECT_FALSE(short_v.is_borrowed_string());
  EXPECT_TRUE(short_v.is_inline_string());
  EXPECT_EQ(short_v.string_value(), "fallback");
  EXPECT_TRUE(short_v.is_trivially_destructible_rep());
  Value long_v = Value::StringIn(nullptr, "fallback-beyond-inline");
  EXPECT_FALSE(long_v.is_borrowed_string());
  EXPECT_FALSE(long_v.is_inline_string());
  EXPECT_EQ(long_v.string_value(), "fallback-beyond-inline");
  EXPECT_FALSE(long_v.is_trivially_destructible_rep());
}

TEST(ArenaTupleTest, AppendKeepsArenaValuesTriviallyDestructible) {
  TupleArena arena;
  Tuple t(&arena, 3);
  ASSERT_TRUE(t.arena_backed());
  t.Append(Value::Int64(7));
  t.Append(Value::String("an owning string"));  // re-homed into arena
  t.Append(Value::Timestamp(42));
  EXPECT_EQ(t.size(), 3);
  EXPECT_TRUE(t.value(1).is_borrowed_string());
  EXPECT_EQ(t.value(1).string_view(), "an owning string");
  EXPECT_TRUE(t.ArenaInvariantHolds(&arena));
}

TEST(ArenaTupleTest, GrowthPastReservedCapacityStaysInArena) {
  TupleArena arena;
  Tuple t(&arena, 2);
  for (int i = 0; i < 40; ++i) t.Append(Value::Int64(i));
  EXPECT_EQ(t.size(), 40);
  EXPECT_TRUE(t.arena_backed());
  for (int i = 0; i < 40; ++i) EXPECT_EQ(t.value(i).int64_value(), i);
}

TEST(ArenaTupleTest, CopyIsOwnedAndOutlivesArena) {
  Tuple copy;
  {
    TupleArena arena;
    Tuple t(&arena, 2);
    t.Append(Value::String("must survive"));
    t.Append(Value::Int64(5));
    t.set_id(17);
    copy = t;  // deep copy promotes the borrowed string
  }  // arena gone
  EXPECT_FALSE(copy.arena_backed());
  EXPECT_FALSE(copy.value(0).is_borrowed_string());
  EXPECT_EQ(copy.value(0).string_view(), "must survive");
  EXPECT_EQ(copy.id(), 17);
  EXPECT_TRUE(copy.ArenaInvariantHolds(nullptr));
}

TEST(ArenaTupleTest, PromoteDetachesFromArena) {
  Tuple t;
  {
    TupleArena arena;
    Tuple in(&arena, 2);
    in.Append(Value::String("promoted"));
    in.Append(Value::Double(2.5));
    in.set_arrival_ms(123);
    t = std::move(in);       // move keeps the arena backing
    ASSERT_TRUE(t.arena_backed());
    t.Promote();             // the window-state insert path
    EXPECT_FALSE(t.arena_backed());
  }
  EXPECT_EQ(t.value(0).string_view(), "promoted");
  EXPECT_EQ(t.value(1).double_value(), 2.5);
  EXPECT_EQ(t.arrival_ms(), 123);
  t.Promote();  // idempotent on owned tuples
  EXPECT_EQ(t.size(), 2);
}

TEST(ArenaTupleTest, RehomeMovesPayloadBetweenArenas) {
  TupleArena dst;
  Tuple t;
  {
    TupleArena src;
    Tuple in(&src, 2);
    in.Append(Value::String("migrant"));
    in.Append(Value::Int64(9));
    in.Rehome(&dst);  // the page-to-page staging path
    EXPECT_EQ(in.arena(), &dst);
    t = std::move(in);
  }  // src arena gone; payload lives in dst now
  EXPECT_EQ(t.value(0).string_view(), "migrant");
  EXPECT_EQ(t.value(1).int64_value(), 9);
  EXPECT_TRUE(t.ArenaInvariantHolds(&dst));

  // Rehome to null promotes.
  t.Rehome(nullptr);
  EXPECT_FALSE(t.arena_backed());
  EXPECT_EQ(t.value(0).string_view(), "migrant");
}

TEST(ArenaTupleTest, HashAndSubsetEqualityAgreeAcrossModes) {
  TupleArena arena;
  Tuple a(&arena, 2);
  a.Append(Value::String("key"));
  a.Append(Value::Int64(3));
  Tuple b = TupleBuilder().S("key").I64(3).Build();
  std::vector<int> idx = {0, 1};
  EXPECT_EQ(a.HashSubset(idx), b.HashSubset(idx));
  EXPECT_TRUE(a.EqualsSubset(b, idx, idx));
  EXPECT_TRUE(a == b);
}

TEST(ArenaTupleTest, SameArenaBorrowAppendsWithoutRecopy) {
  TupleArena arena;
  // The documented construction pattern: StringIn copies the bytes
  // into the arena once; Append must recognise the same-arena borrow
  // and not copy them a second time.
  Value v = Value::StringIn(&arena, "a-string-long-enough-to-matter");
  Tuple t(&arena, 2);
  size_t before = arena.bytes_used();
  t.Append(std::move(v));
  EXPECT_EQ(arena.bytes_used(), before);
  EXPECT_TRUE(t.value(0).is_borrowed_string());

  // A FOREIGN borrow must still be re-copied (its arena may die
  // first).
  TupleArena other;
  Value foreign = Value::StringIn(&other, "foreign-arena-bytes");
  before = arena.bytes_used();
  t.Append(std::move(foreign));
  EXPECT_GT(arena.bytes_used(), before);
  EXPECT_TRUE(arena.Owns(t.value(1).string_view().data()));
}

TEST(ArenaTupleTest, OwnedAppendPromotesBorrowedValues) {
  TupleArena arena;
  Value borrowed = Value::StringIn(&arena, "loose");
  Tuple t;  // owned mode
  t.Append(std::move(borrowed));
  EXPECT_FALSE(t.value(0).is_borrowed_string());
  EXPECT_TRUE(t.ArenaInvariantHolds(nullptr));
}

TEST(PageArenaTest, AddTupleRehomesForeignArenaTuples) {
  Page source;
  TupleArena* src_arena = source.arena();
  ASSERT_NE(src_arena, nullptr);
  Tuple t(src_arena, 1);
  t.Append(Value::String("hop"));

  Page dest;
  dest.AddTuple(std::move(t));
  ASSERT_EQ(dest.size(), 1u);
  const Tuple& landed = dest.elements()[0].tuple();
  EXPECT_TRUE(landed.ArenaInvariantHolds(dest.arena_if_created()));
  // Destroy the source page: the landed tuple must not reference it.
  source = Page();
  EXPECT_EQ(landed.value(0).string_view(), "hop");
}

TEST(PageArenaTest, ArenaFreedWholesaleWithPage) {
  // A page full of arena tuples (with strings) destructs cleanly and
  // releases everything — ASan/LSan in CI is the real referee here.
  auto page = std::make_unique<Page>();
  TupleArena* arena = page->arena();
  ASSERT_NE(arena, nullptr);
  for (int i = 0; i < 1000; ++i) {
    Tuple t(arena, 2);
    t.Append(Value::StringIn(arena, "payload-" + std::to_string(i)));
    t.Append(Value::Int64(i));
    page->Add(StreamElement::OfTuple(std::move(t)));
  }
  EXPECT_EQ(page->size(), 1000u);
  EXPECT_GT(arena->bytes_used(), 1000u * sizeof(Value));
  page.reset();  // wholesale free; nothing to assert but "no crash/leak"
}

}  // namespace
}  // namespace nstream
