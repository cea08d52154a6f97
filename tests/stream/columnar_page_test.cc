// ColumnarBlock / Page layout unit tests: SoA storage semantics
// (Set's string re-homing, per-column class tracking), selection
// vectors as index edits (KeepIf composition, stable
// PartitionSelection), in-place projection, row materialization
// (scratch FillRow, aliased and owned gathers, EnsureRowLayout), the
// arena-ownership invariant behind the wholesale page free, and the
// compiled-pattern purge over columnar pages — including the hoisted
// all-int64 path.

#include "stream/columnar.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "punct/compiled_pattern.h"
#include "punct/punct_pattern.h"
#include "stream/page.h"
#include "types/tuple.h"
#include "types/tuple_arena.h"
#include "types/value.h"

namespace nstream {
namespace {

// A 3-column block: [int64 key, timestamp, string payload], n rows.
// Payloads alternate inline-short and past-inline lengths so Set's
// string re-homing is exercised both ways.
ColumnarBlock* FillBlock(Page* page, int n) {
  ColumnarBlock* b = page->BeginColumnar(3, static_cast<uint32_t>(n));
  EXPECT_NE(b, nullptr);
  for (int i = 0; i < n; ++i) {
    uint32_t r = b->AddRow(/*id=*/1000 + i, /*arrival=*/10 * i);
    b->Set(0, r, Value::Int64(i));
    b->Set(1, r, Value::Timestamp(100 + i));
    std::string payload = "p-" + std::to_string(i);
    if (i % 2 == 0) payload += "-well-past-the-inline-cap";
    b->Set(2, r, Value::String(payload));
  }
  return b;
}

TEST(ColumnarBlockTest, AddRowSetAndColumnAccess) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 8);
  EXPECT_EQ(b->cols(), 3u);
  EXPECT_EQ(b->rows(), 8u);
  EXPECT_EQ(b->size(), 8u);
  EXPECT_TRUE(b->full());
  EXPECT_EQ(page.size(), 8u);
  EXPECT_FALSE(page.empty());
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(b->row_at(i), i);  // no selection yet: identity
    EXPECT_EQ(b->ids()[i], 1000 + static_cast<int64_t>(i));
    EXPECT_EQ(b->arrivals()[i], static_cast<TimeMs>(10 * i));
    EXPECT_EQ(b->column(0)[i].int64_value(), static_cast<int64_t>(i));
    EXPECT_EQ(b->column(1)[i].int64_value(), 100 + static_cast<int64_t>(i));
  }
  // Column classes: int64-imaged (kInt64 and kTimestamp both), string.
  EXPECT_EQ(b->column_class(0), ColumnClass::kInt64);
  EXPECT_EQ(b->column_class(1), ColumnClass::kInt64);
  EXPECT_EQ(b->column_class(2), ColumnClass::kMixed);
}

TEST(ColumnarBlockTest, ZeroColumnBlockHoldsRows) {
  // Schema::Project({}) is legal, so a block may have no columns: its
  // rows are ids and arrivals only, and gather to empty tuples.
  Page page;
  ColumnarBlock* b = page.BeginColumnar(0, 4);
  b->AddRow(7, 70);
  b->AddRow(8, 80);
  EXPECT_EQ(b->cols(), 0u);
  EXPECT_EQ(page.size(), 2u);
  page.EnsureRowLayout();
  ASSERT_EQ(page.elements().size(), 2u);
  EXPECT_EQ(page.elements()[1].tuple().size(), 0);
  EXPECT_EQ(page.elements()[1].tuple().id(), 8);
  EXPECT_EQ(page.elements()[1].tuple().arrival_ms(), 80);
}

TEST(ColumnarBlockTest, PopRowDropsTheOpenRow) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 2);
  EXPECT_TRUE(b->full());
  b->PopRow();
  EXPECT_EQ(b->size(), 1u);
  const uint32_t r = b->AddRow(5, 50);
  b->Set(0, r, Value::Int64(-1));
  b->Set(1, r, Value::Timestamp(-1));
  b->Set(2, r, Value::String("again"));
  page.EnsureRowLayout();
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page.elements()[1].tuple().ToString(),
            (TupleBuilder().I64(-1).Ts(-1).S("again").Build().ToString()));
  EXPECT_EQ(page.elements()[1].tuple().id(), 5);
}

TEST(ColumnarBlockTest, ColumnClassLattice) {
  Page page;
  ColumnarBlock* b = page.BeginColumnar(4, 4);
  ASSERT_NE(b, nullptr);
  uint32_t r0 = b->AddRow(0, 0);
  b->Set(0, r0, Value::Int64(1));
  b->Set(1, r0, Value::Double(1.5));
  b->Set(2, r0, Value::Int64(7));
  b->Set(3, r0, Value::Null());
  EXPECT_EQ(b->column_class(0), ColumnClass::kInt64);
  EXPECT_EQ(b->column_class(1), ColumnClass::kDouble);
  EXPECT_EQ(b->column_class(3), ColumnClass::kMixed);
  uint32_t r1 = b->AddRow(1, 0);
  b->Set(0, r1, Value::Timestamp(2));  // int64-imaged: stays kInt64
  b->Set(1, r1, Value::Double(2.5));
  b->Set(2, r1, Value::Double(0.5));   // int64 column sees a double
  b->Set(3, r1, Value::Int64(3));
  EXPECT_EQ(b->column_class(0), ColumnClass::kInt64);
  EXPECT_EQ(b->column_class(1), ColumnClass::kDouble);
  EXPECT_EQ(b->column_class(2), ColumnClass::kMixed);
  EXPECT_EQ(b->column_class(3), ColumnClass::kMixed);
}

TEST(ColumnarBlockTest, SetRehomesStringsIntoTheBlockArena) {
  Page page;
  ColumnarBlock* b = page.BeginColumnar(1, 4);
  ASSERT_NE(b, nullptr);
  TupleArena* arena = b->arena();

  // An owned string past the inline cap is copied into the arena and
  // stored borrowed (trivially destructible).
  std::string long_text(40, 'x');
  uint32_t r0 = b->AddRow(0, 0);
  b->Set(0, r0, Value::String(long_text));
  const Value& v0 = b->column(0)[r0];
  EXPECT_TRUE(v0.is_borrowed_string());
  EXPECT_TRUE(arena->Owns(v0.string_view().data()));
  EXPECT_EQ(v0.string_view(), long_text);

  // A string already borrowed from THIS arena stays a borrow of the
  // same bytes — no second copy.
  Value same_arena = Value::StringIn(arena, long_text + "-2");
  uint32_t r1 = b->AddRow(1, 0);
  b->Set(0, r1, same_arena);
  EXPECT_EQ(b->column(0)[r1].string_view().data(),
            same_arena.string_view().data());

  // A borrow of FOREIGN bytes is re-homed (copied into this arena).
  TupleArena other;
  Value foreign = Value::StringIn(&other, long_text + "-3");
  uint32_t r2 = b->AddRow(2, 0);
  b->Set(0, r2, foreign);
  EXPECT_NE(b->column(0)[r2].string_view().data(),
            foreign.string_view().data());
  EXPECT_TRUE(arena->Owns(b->column(0)[r2].string_view().data()));
  EXPECT_EQ(b->column(0)[r2].string_view(), long_text + "-3");

  // Inline strings are flat field copies — self-contained.
  uint32_t r3 = b->AddRow(3, 0);
  b->Set(0, r3, Value::String("short"));
  EXPECT_TRUE(b->column(0)[r3].is_inline_string());

  EXPECT_TRUE(b->ArenaInvariantHolds(page.arena_if_created()));
}

TEST(ColumnarBlockTest, KeepIfIsAnIndexEditAndComposes) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 10);
  const Value* col0_before = b->column(0);

  b->KeepIf([&](uint32_t r) { return r % 2 == 0; });  // keep evens
  EXPECT_EQ(b->size(), 5u);
  EXPECT_EQ(b->rows(), 10u);  // physical rows untouched
  EXPECT_EQ(b->column(0), col0_before);  // no data movement
  for (uint32_t i = 0; i < b->size(); ++i) {
    EXPECT_EQ(b->row_at(i), 2 * i);
  }

  // A second filter sees only the surviving rows.
  int visited = 0;
  b->KeepIf([&](uint32_t r) {
    ++visited;
    return r >= 4;
  });
  EXPECT_EQ(visited, 5);
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(b->row_at(0), 4u);
  EXPECT_EQ(b->row_at(2), 8u);

  // Keep-none empties the page without touching the columns.
  b->KeepIf([](uint32_t) { return false; });
  EXPECT_EQ(b->size(), 0u);
  EXPECT_TRUE(page.empty());
}

TEST(ColumnarBlockTest, PartitionSelectionIsStable) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 8);
  // Match rows 1, 4, 6 → they move ahead of rows 0, 2, 3, 5, 7 with
  // relative order preserved on both sides.
  auto match = [](uint32_t r) { return r == 1 || r == 4 || r == 6; };
  int moved = b->PartitionSelection(match);
  EXPECT_EQ(moved, 3);
  std::vector<uint32_t> order;
  for (uint32_t i = 0; i < b->size(); ++i) order.push_back(b->row_at(i));
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 4, 6, 0, 2, 3, 5, 7}));

  // Already partitioned: nothing jumps.
  EXPECT_EQ(b->PartitionSelection(match), 3);  // same stable result
  std::vector<uint32_t> again;
  for (uint32_t i = 0; i < b->size(); ++i) again.push_back(b->row_at(i));
  EXPECT_EQ(again, order);

  // All-match and none-match are no-ops.
  EXPECT_EQ(b->PartitionSelection([](uint32_t) { return true; }), 0);
  EXPECT_EQ(b->PartitionSelection([](uint32_t) { return false; }), 0);
}

TEST(ColumnarBlockTest, ProjectColumnsRepointsInPlace) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 6);
  const Value* key_col = b->column(0);
  const Value* str_col = b->column(2);
  b->ProjectColumns({2, 0, 0});  // reorder + duplicate
  EXPECT_EQ(b->cols(), 3u);
  EXPECT_EQ(b->column(0), str_col);
  EXPECT_EQ(b->column(1), key_col);
  EXPECT_EQ(b->column(2), key_col);
  EXPECT_EQ(b->column_class(1), ColumnClass::kInt64);
  EXPECT_EQ(b->rows(), 6u);
  EXPECT_EQ(b->ids()[3], 1003);
}

TEST(ColumnarBlockTest, ScratchFillRowAndGathers) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 4);
  Tuple scratch = b->MakeRowScratch();
  ASSERT_EQ(scratch.size(), 3);
  for (uint32_t r = 0; r < 4; ++r) {
    b->FillRow(r, &scratch);
    EXPECT_EQ(scratch.id(), 1000 + static_cast<int64_t>(r));
    EXPECT_EQ(scratch.arrival_ms(), static_cast<TimeMs>(10 * r));
    EXPECT_EQ(scratch.value(0).int64_value(), static_cast<int64_t>(r));

    Tuple aliased = b->GatherRowAliased(r);
    EXPECT_TRUE(aliased.arena_backed());
    EXPECT_EQ(aliased.ToString(), scratch.ToString());
    // Aliased gathers share the arena string bytes (no clone).
    if (!b->column(2)[r].is_inline_string()) {
      EXPECT_EQ(aliased.value(2).string_view().data(),
                b->column(2)[r].string_view().data());
    }
  }
}

TEST(ColumnarPageTest, EnsureRowLayoutMaterializesSelectedRowsInOrder) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 10);
  b->KeepIf([](uint32_t r) { return r % 3 == 0; });  // rows 0,3,6,9
  ASSERT_TRUE(page.is_columnar());
  page.EnsureRowLayout();
  EXPECT_FALSE(page.is_columnar());
  ASSERT_EQ(page.size(), 4u);
  const std::vector<StreamElement>& elems = page.elements();
  std::vector<int64_t> keys;
  for (const StreamElement& e : elems) {
    ASSERT_TRUE(e.is_tuple());
    EXPECT_TRUE(page.ElementArenaInvariantHolds(e));
    keys.push_back(e.tuple().value(0).int64_value());
  }
  EXPECT_EQ(keys, (std::vector<int64_t>{0, 3, 6, 9}));
  EXPECT_EQ(elems[1].tuple().id(), 1003);
  // Idempotent / no-op on row pages.
  page.EnsureRowLayout();
  EXPECT_EQ(page.size(), 4u);
}

TEST(ColumnarPageTest, ArenaInvariantDetectsForeignArena) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 3);
  EXPECT_TRUE(b->ArenaInvariantHolds(page.arena_if_created()));
  TupleArena other;
  EXPECT_FALSE(b->ArenaInvariantHolds(&other));
  EXPECT_FALSE(b->ArenaInvariantHolds(nullptr));
}

// ---------------------------------------------------------------------------
// Compiled-pattern exploits over columnar pages.
// ---------------------------------------------------------------------------

TEST(ColumnarPurgeTest, HoistedInt64RangePurge) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 10);  // ts column 1: 100..109
  // Purge ts in [102, 105] — all-int checks over a kInt64 column take
  // the hoisted unchecked_int64 path.
  PunctPattern p = PunctPattern::AllWildcard(3).With(
      1, AttrPattern::Range(Value::Timestamp(102), Value::Timestamp(105)));
  CompiledPattern compiled(p);
  int removed = compiled.FilterColumnarPurge(b);
  EXPECT_EQ(removed, 4);
  EXPECT_EQ(b->size(), 6u);
  for (uint32_t i = 0; i < b->size(); ++i) {
    int64_t ts = b->column(1)[b->row_at(i)].int64_value();
    EXPECT_TRUE(ts < 102 || ts > 105) << ts;
  }
  // Purge composes with an existing selection: drop keys >= 8 next.
  PunctPattern p2 = PunctPattern::AllWildcard(3).With(
      0, AttrPattern::Ge(Value::Int64(8)));
  EXPECT_EQ(CompiledPattern(p2).FilterColumnarPurge(b), 2);
  EXPECT_EQ(b->size(), 4u);
}

TEST(ColumnarPurgeTest, RowWisePurgeOnMixedColumns) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 10);
  // A string-operand check cannot hoist; it must fall back to the
  // row-wise MatchesRow walk and still agree with the interpreter.
  PunctPattern p = PunctPattern::AllWildcard(3).With(
      2, AttrPattern::Eq(Value::String("p-3")));
  CompiledPattern compiled(p);
  EXPECT_EQ(compiled.FilterColumnarPurge(b), 1);
  EXPECT_EQ(b->size(), 9u);
  for (uint32_t i = 0; i < b->size(); ++i) {
    EXPECT_TRUE(!compiled.MatchesRow(*b, b->row_at(i)));
  }
}

TEST(ColumnarPurgeTest, AlwaysTrueAndArityMismatch) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 5);
  // Arity mismatch: no rows match, nothing removed.
  CompiledPattern wrong(PunctPattern::AllWildcard(2));
  EXPECT_EQ(wrong.FilterColumnarPurge(b), 0);
  EXPECT_EQ(b->size(), 5u);
  EXPECT_FALSE(wrong.MatchesRow(*b, 0));
  // All-wildcard at the right arity purges everything.
  CompiledPattern all(PunctPattern::AllWildcard(3));
  EXPECT_TRUE(all.MatchesRow(*b, 0));
  EXPECT_EQ(all.FilterColumnarPurge(b), 5);
  EXPECT_TRUE(page.empty());
}

TEST(ColumnarPurgeTest, MatchesRowAgreesWithGatheredTuple) {
  Page page;
  ColumnarBlock* b = FillBlock(&page, 10);
  std::vector<CompiledPattern> patterns;
  patterns.emplace_back(PunctPattern::AllWildcard(3).With(
      0, AttrPattern::Lt(Value::Int64(4))));
  patterns.emplace_back(PunctPattern::AllWildcard(3).With(
      1, AttrPattern::Range(Value::Timestamp(101), Value::Timestamp(107))));
  patterns.emplace_back(PunctPattern::AllWildcard(3).With(
      2, AttrPattern::NotNull()));
  for (const CompiledPattern& cp : patterns) {
    for (uint32_t r = 0; r < b->rows(); ++r) {
      EXPECT_EQ(cp.MatchesRow(*b, r), cp.Matches(b->GatherRowAliased(r)))
          << cp.pattern().ToString() << " row " << r;
    }
  }
}

}  // namespace
}  // namespace nstream
