// Flat-Value semantic equivalence: the 16-byte tagged-union Value must
// be observationally identical to the std::variant representation it
// replaced. A frozen copy of the variant implementation (rep, Hash,
// TryCompare, equality — verbatim from the pre-flat value.cc) lives
// here as the reference; randomized values of every type — including
// owned and arena-borrowed strings and the >2^53 numeric region —
// are pushed through both and must agree on Hash, TryCompare (both
// comparability and sign), ==, type, and string bytes. Representation
// rules (copies promote borrowed → owned, moves preserve the borrow)
// are asserted directly.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include "types/tuple_arena.h"
#include "types/value.h"

namespace nstream {
namespace {

// ---- Frozen variant reference (the pre-flat representation) ----

struct RefStringRef {
  const char* data;
  size_t len;
};

class RefValue {
 public:
  using Rep = std::variant<std::monostate, bool, int64_t, double,
                           std::string, RefStringRef>;

  ValueType type = ValueType::kNull;
  Rep rep;

  static RefValue Of(const Value& v) {
    RefValue r;
    r.type = v.type();
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        r.rep = v.bool_value();
        break;
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        r.rep = v.int64_value();
        break;
      case ValueType::kDouble:
        r.rep = v.double_value();
        break;
      case ValueType::kString: {
        std::string_view sv = v.string_view();
        if (v.is_borrowed_string()) {
          r.rep = RefStringRef{sv.data(), sv.size()};
        } else {
          r.rep = std::string(sv);
        }
        break;
      }
    }
    return r;
  }

  bool is_null() const { return type == ValueType::kNull; }
  bool is_numeric() const {
    return type == ValueType::kInt64 || type == ValueType::kDouble ||
           type == ValueType::kTimestamp;
  }
  std::string_view string_view() const {
    if (rep.index() == 5) {
      const RefStringRef& s = std::get<RefStringRef>(rep);
      return std::string_view(s.data, s.len);
    }
    return std::get<std::string>(rep);
  }

  bool TryCompare(const RefValue& other, int* out) const {
    if (is_null() || other.is_null()) {
      if (is_null() && other.is_null()) {
        *out = 0;
      } else {
        *out = is_null() ? -1 : 1;
      }
      return true;
    }
    if (is_numeric() && other.is_numeric()) {
      if (type != ValueType::kDouble && other.type != ValueType::kDouble) {
        int64_t a = std::get<int64_t>(rep);
        int64_t b = std::get<int64_t>(other.rep);
        *out = a < b ? -1 : (a > b ? 1 : 0);
        return true;
      }
      double a = type == ValueType::kDouble
                     ? std::get<double>(rep)
                     : static_cast<double>(std::get<int64_t>(rep));
      double b = other.type == ValueType::kDouble
                     ? std::get<double>(other.rep)
                     : static_cast<double>(std::get<int64_t>(other.rep));
      *out = a < b ? -1 : (a > b ? 1 : 0);
      return true;
    }
    if (type == ValueType::kString && other.type == ValueType::kString) {
      int c = string_view().compare(other.string_view());
      *out = c < 0 ? -1 : (c > 0 ? 1 : 0);
      return true;
    }
    if (type == ValueType::kBool && other.type == ValueType::kBool) {
      *out = static_cast<int>(std::get<bool>(rep)) -
             static_cast<int>(std::get<bool>(other.rep));
      return true;
    }
    return false;
  }

  bool Equals(const RefValue& other) const {
    int c;
    return TryCompare(other, &c) && c == 0;
  }

  size_t Hash() const {
    switch (type) {
      case ValueType::kNull:
        return 0x9ae16a3b2f90404fULL;
      case ValueType::kBool:
        return std::get<bool>(rep) ? 0x1234567 : 0x7654321;
      case ValueType::kInt64:
      case ValueType::kTimestamp: {
        int64_t v = std::get<int64_t>(rep);
        if (v > -Value::kDoubleExactBound && v < Value::kDoubleExactBound) {
          return std::hash<int64_t>{}(v);
        }
        return std::hash<double>{}(static_cast<double>(v));
      }
      case ValueType::kDouble: {
        double d = std::get<double>(rep);
        if (d > -static_cast<double>(Value::kDoubleExactBound) &&
            d < static_cast<double>(Value::kDoubleExactBound)) {
          int64_t i = static_cast<int64_t>(d);
          if (static_cast<double>(i) == d) {
            return std::hash<int64_t>{}(i);
          }
        }
        return std::hash<double>{}(d);
      }
      case ValueType::kString:
        return std::hash<std::string_view>{}(string_view());
    }
    return 0;
  }
};

// ---- Randomized value generation ----

std::string RandomText(std::mt19937_64* rng) {
  // Skewed lengths: empties, short join keys, and the occasional
  // chunk-straddling blob.
  size_t len;
  switch ((*rng)() % 5) {
    case 0:
      len = 0;
      break;
    case 1:
      len = 1 + (*rng)() % 4;
      break;
    case 2:
      len = 8 + (*rng)() % 24;
      break;
    default:
      len = (*rng)() % 200;
      break;
  }
  std::string out;
  out.reserve(len);
  // Tiny alphabet so equal strings are actually generated.
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + (*rng)() % 3));
  }
  return out;
}

Value RandomValue(std::mt19937_64* rng, TupleArena* arena) {
  switch ((*rng)() % 8) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool((*rng)() % 2 == 0);
    case 2:
      return Value::Int64(static_cast<int64_t>((*rng)() % 64) - 32);
    case 3: {
      // The >2^53 region and INT64 extremes.
      int64_t v = static_cast<int64_t>((*rng)());
      return Value::Int64(v);
    }
    case 4: {
      double d = static_cast<double>(static_cast<int64_t>((*rng)() % 97) -
                                     48) /
                 4.0;
      return Value::Double(d);
    }
    case 5:
      return Value::Timestamp(static_cast<TimeMs>((*rng)() % 1000));
    case 6:
      return Value::String(RandomText(rng));
    default:
      // Borrowed representation, bytes owned by the arena.
      return Value::StringIn(arena, RandomText(rng));
  }
}

TEST(ValueFlatEquivalence, RandomizedAgainstVariantReference) {
  std::mt19937_64 rng(0xfeedface);
  TupleArena arena;
  std::vector<Value> values;
  for (int i = 0; i < 400; ++i) {
    values.push_back(RandomValue(&rng, &arena));
  }
  std::vector<RefValue> refs;
  refs.reserve(values.size());
  for (const Value& v : values) refs.push_back(RefValue::Of(v));

  for (size_t i = 0; i < values.size(); ++i) {
    // Unary observations.
    EXPECT_EQ(values[i].Hash(), refs[i].Hash()) << values[i].ToString();
    if (values[i].type() == ValueType::kString) {
      EXPECT_EQ(values[i].string_view(), refs[i].string_view());
    }
    // Pairwise: comparability, sign, equality, hash compatibility.
    for (size_t j = 0; j < values.size(); ++j) {
      int flat_c = 99, ref_c = 99;
      bool flat_ok = values[i].TryCompare(values[j], &flat_c);
      bool ref_ok = refs[i].TryCompare(refs[j], &ref_c);
      ASSERT_EQ(flat_ok, ref_ok)
          << values[i].ToString() << " vs " << values[j].ToString();
      if (flat_ok) {
        ASSERT_EQ(flat_c, ref_c)
            << values[i].ToString() << " vs " << values[j].ToString();
      }
      ASSERT_EQ(values[i] == values[j], refs[i].Equals(refs[j]))
          << values[i].ToString() << " vs " << values[j].ToString();
      if (values[i] == values[j]) {
        ASSERT_EQ(values[i].Hash(), values[j].Hash())
            << values[i].ToString() << " == " << values[j].ToString()
            << " but hashes differ";
      }
      Result<int> slow = values[i].Compare(values[j]);
      ASSERT_EQ(slow.ok(), flat_ok);
      if (flat_ok) {
        ASSERT_EQ(slow.value(), flat_c);
      }
    }
  }
}

TEST(ValueFlatEquivalence, CopyPromotesBorrowedToSelfContained) {
  TupleArena arena;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 50; ++i) {
    // Force borrows with BorrowedString directly so every length —
    // including the inline-capable ones — exercises the promotion.
    std::string text = RandomText(&rng);
    Value borrowed = Value::BorrowedString(arena.CopyString(text));
    ASSERT_TRUE(borrowed.is_borrowed_string());
    ASSERT_TRUE(borrowed.is_trivially_destructible_rep());

    // Copy construction and copy assignment both promote to a
    // self-contained representation (inline or heap-owned by length).
    Value copy(borrowed);
    EXPECT_FALSE(copy.is_borrowed_string());
    EXPECT_EQ(copy.is_inline_string(),
              text.size() <= Value::kInlineCap);
    EXPECT_EQ(copy.string_view(), text);
    if (!text.empty()) {
      EXPECT_NE(copy.string_view().data(),
                borrowed.string_view().data())
          << "a copy must not alias arena bytes";
    }

    Value assigned;
    assigned = borrowed;
    EXPECT_FALSE(assigned.is_borrowed_string());
    EXPECT_EQ(assigned.string_view(), text);

    // Moves preserve the representation; the source resets to NULL.
    Value moved(std::move(borrowed));
    EXPECT_TRUE(moved.is_borrowed_string());
    EXPECT_EQ(moved.string_view(), text);

    // Self-contained strings stay self-contained through copies, and
    // heap-owned ones re-clone (no aliasing).
    Value owned = Value::String(text);
    Value owned_copy = owned;
    EXPECT_FALSE(owned_copy.is_borrowed_string());
    EXPECT_EQ(owned_copy, owned);
    if (text.size() > Value::kInlineCap) {
      EXPECT_NE(owned_copy.string_view().data(),
                owned.string_view().data());
    }
  }
}

TEST(ValueFlatEquivalence, CopiedValuesOutliveTheirArena) {
  // The escape-safety rule end to end: copy out of an arena, destroy
  // the arena, the copy's bytes must still be intact (ASan enforces
  // the "must" part; the content check catches silent aliasing).
  std::string text = "stream-segment-17";
  Value copy;
  {
    TupleArena arena;
    Value borrowed = Value::StringIn(&arena, text);
    copy = borrowed;
  }
  EXPECT_EQ(copy.string_view(), text);
  EXPECT_EQ(copy, Value::String(text));
}

TEST(ValueFlatEquivalence, AssignmentFromAliasedSubstringIsSafe) {
  // `b` borrows bytes inside `a`'s own storage; assigning b into a
  // must clone before touching a's fields — for a heap-owned a AND
  // for an inline a (whose bytes live inside the value being
  // overwritten).
  Value heap_a = Value::String("abcdefgh-beyond-inline");
  Value heap_b = Value::BorrowedString(heap_a.string_view().substr(2, 4));
  heap_a = heap_b;
  EXPECT_EQ(heap_a.string_view(), "cdef");
  EXPECT_FALSE(heap_a.is_borrowed_string());

  Value inline_a = Value::String("abcdefgh");
  ASSERT_TRUE(inline_a.is_inline_string());
  Value inline_b =
      Value::BorrowedString(inline_a.string_view().substr(2, 4));
  inline_a = inline_b;
  EXPECT_EQ(inline_a.string_view(), "cdef");
  EXPECT_FALSE(inline_a.is_borrowed_string());
}

TEST(ValueFlatEquivalence, SelfAssignmentKeepsOwnedBytes) {
  Value a = Value::String("hello");
  const Value& alias = a;
  a = alias;
  EXPECT_EQ(a.string_view(), "hello");
  Value moved = Value::String("world");
  moved = std::move(moved);  // self-move: must not free-then-read
  SUCCEED();
}

TEST(ValueFlatEquivalence, EmptyStringRepresentations) {
  // Empty strings: inline via every self-contained constructor,
  // borrowed only via an explicit borrow; all equal, all one hash.
  TupleArena arena;
  Value inlined = Value::String("");
  Value via_arena = Value::StringIn(&arena, "");  // short-circuits to inline
  Value borrowed = Value::BorrowedString(std::string_view());
  EXPECT_EQ(inlined, via_arena);
  EXPECT_EQ(inlined, borrowed);
  EXPECT_EQ(inlined.Hash(), borrowed.Hash());
  EXPECT_TRUE(inlined.is_inline_string());
  EXPECT_TRUE(via_arena.is_inline_string());
  EXPECT_TRUE(borrowed.is_borrowed_string());
  EXPECT_TRUE(inlined.is_trivially_destructible_rep());
  EXPECT_TRUE(borrowed.is_trivially_destructible_rep());
  EXPECT_EQ(inlined.string_view().size(), 0u);
  Value copy = borrowed;  // promoting an empty borrow must be sound
  EXPECT_EQ(copy, inlined);
  EXPECT_FALSE(copy.is_borrowed_string());
  EXPECT_TRUE(copy.is_inline_string());
}

TEST(ValueFlatEquivalence, FlatLayoutBounds) {
  static_assert(sizeof(Value) <= 16);
  EXPECT_LE(sizeof(Value), 16u);
}

}  // namespace
}  // namespace nstream
