// CompiledPattern must be observationally identical to the interpreted
// PunctPattern::Matches — same semantics for every op, operand type,
// and value type, including NULLs, NaNs and incomparable pairs.

#include "punct/compiled_pattern.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "punct/punct_pattern.h"
#include "types/tuple.h"

namespace nstream {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<AttrPattern> AllAttrPatterns() {
  std::vector<AttrPattern> out;
  out.push_back(AttrPattern::Any());
  out.push_back(AttrPattern::IsNull());
  out.push_back(AttrPattern::NotNull());
  std::vector<Value> operands = {
      Value::Int64(5),        Value::Int64(-3),
      Value::Timestamp(5),    Value::Double(5.0),
      Value::Double(4.5),     Value::String("m"),
      Value::Bool(true),      Value::Double(kNaN),
  };
  for (const Value& v : operands) {
    out.push_back(AttrPattern::Eq(v));
    out.push_back(AttrPattern::Ne(v));
    out.push_back(AttrPattern::Lt(v));
    out.push_back(AttrPattern::Le(v));
    out.push_back(AttrPattern::Gt(v));
    out.push_back(AttrPattern::Ge(v));
  }
  out.push_back(AttrPattern::Range(Value::Int64(2), Value::Int64(8)));
  out.push_back(
      AttrPattern::Range(Value::Double(2.5), Value::Double(7.5)));
  out.push_back(AttrPattern::Range(Value::Int64(2), Value::Double(7.5)));
  out.push_back(
      AttrPattern::Range(Value::Timestamp(0), Value::Timestamp(10)));
  out.push_back(AttrPattern::Range(Value::String("b"), Value::String("x")));
  // Mixed int/double range with an int64 bound above 2^53: must not be
  // lowered to double (the interpreted matcher compares it exactly).
  out.push_back(AttrPattern::Range(
      Value::Int64((int64_t{1} << 62) + 1), Value::Double(1e30)));
  // NaN sorts above every number: a NaN upper bound admits them all.
  out.push_back(AttrPattern::Range(Value::Int64(2), Value::Double(kNaN)));
  out.push_back(AttrPattern::Range(Value::Double(kNaN), Value::Double(kNaN)));
  return out;
}

std::vector<Value> AllValues() {
  return {
      Value::Null(),       Value::Bool(false),   Value::Bool(true),
      Value::Int64(-3),    Value::Int64(0),      Value::Int64(5),
      Value::Int64(8),     Value::Int64(100),    Value::Timestamp(5),
      Value::Timestamp(11), Value::Double(-2.5), Value::Double(4.5),
      Value::Double(5.0),  Value::Double(7.5),   Value::String(""),
      Value::String("a"),  Value::String("m"),   Value::String("z"),
      Value::Int64(int64_t{1} << 62),
      Value::Int64((int64_t{1} << 62) + 1),
      Value::Double(4611686018427387904.0),  // 2^62
      Value::Double(kNaN), Value::Double(-kNaN),
  };
}

TEST(CompiledPattern, MatchesAgreesWithInterpretedSweep) {
  // Every (attr pattern, value) pair, tested through a 1-ary pattern.
  for (const AttrPattern& ap : AllAttrPatterns()) {
    PunctPattern p({ap});
    CompiledPattern compiled(p);
    for (const Value& v : AllValues()) {
      Tuple t(std::vector<Value>{v});
      EXPECT_EQ(compiled.Matches(t), p.Matches(t))
          << "pattern " << p.ToString() << " value " << v.ToString();
    }
  }
}

TEST(CompiledPattern, MultiAttributeAndArity) {
  PunctPattern p = PunctPattern::AllWildcard(3)
                       .With(0, AttrPattern::Ne(Value::Int64(2)))
                       .With(2, AttrPattern::Range(Value::Timestamp(10),
                                                   Value::Timestamp(20)));
  CompiledPattern compiled(p);
  Tuple hit = TupleBuilder().I64(1).S("x").Ts(15).Build();
  Tuple miss_first = TupleBuilder().I64(2).S("x").Ts(15).Build();
  Tuple miss_last = TupleBuilder().I64(1).S("x").Ts(25).Build();
  Tuple wrong_arity = TupleBuilder().I64(1).S("x").Build();
  EXPECT_TRUE(compiled.Matches(hit));
  EXPECT_FALSE(compiled.Matches(miss_first));
  EXPECT_FALSE(compiled.Matches(miss_last));
  EXPECT_FALSE(compiled.Matches(wrong_arity));
  EXPECT_EQ(compiled.Matches(hit), p.Matches(hit));
  EXPECT_EQ(compiled.Matches(wrong_arity), p.Matches(wrong_arity));
}

TEST(CompiledPattern, AlwaysTrueAndEmpty) {
  CompiledPattern wildcard(PunctPattern::AllWildcard(2));
  EXPECT_TRUE(wildcard.always_true());
  EXPECT_TRUE(wildcard.Matches(TupleBuilder().I64(1).I64(2).Build()));
  EXPECT_FALSE(wildcard.Matches(TupleBuilder().I64(1).Build()));

  CompiledPattern empty;
  EXPECT_TRUE(empty.always_true());
  EXPECT_EQ(empty.arity(), 0);
  EXPECT_TRUE(empty.Matches(Tuple()));
}

TEST(CompiledPattern, MixedNumericWidening) {
  // Int operand vs double value and vice versa must widen exactly as
  // Value::Compare does.
  PunctPattern int_op = PunctPattern::AllWildcard(1).With(
      0, AttrPattern::Gt(Value::Int64(5)));
  CompiledPattern compiled(int_op);
  Tuple just_above = Tuple(std::vector<Value>{Value::Double(5.5)});
  Tuple at = Tuple(std::vector<Value>{Value::Double(5.0)});
  EXPECT_TRUE(compiled.Matches(just_above));
  EXPECT_FALSE(compiled.Matches(at));
  EXPECT_EQ(compiled.Matches(just_above), int_op.Matches(just_above));
  EXPECT_EQ(compiled.Matches(at), int_op.Matches(at));
}

TEST(CompiledPattern, KeepsPatternAccessible) {
  PunctPattern p = PunctPattern::AllWildcard(2).With(
      1, AttrPattern::Le(Value::Timestamp(99)));
  CompiledPattern compiled(p);
  EXPECT_EQ(compiled.pattern(), p);
  EXPECT_EQ(compiled.arity(), 2);
  EXPECT_FALSE(compiled.always_true());
}

// ---- CompiledPatternCache ----

PunctPattern WmPattern(int64_t bound) {
  return PunctPattern::AllWildcard(3).With(
      1, AttrPattern::Le(Value::Timestamp(bound)));
}

TEST(CompiledPatternCache, HashIsValueCompatible) {
  PunctPattern a = WmPattern(50);
  PunctPattern b = WmPattern(50);  // equal, distinct objects
  PunctPattern c = WmPattern(51);
  EXPECT_EQ(HashPunctPattern(a), HashPunctPattern(b));
  EXPECT_NE(HashPunctPattern(a), HashPunctPattern(c));
  // Constrained position matters, not just the operand.
  PunctPattern d = PunctPattern::AllWildcard(3).With(
      2, AttrPattern::Le(Value::Timestamp(50)));
  EXPECT_NE(HashPunctPattern(a), HashPunctPattern(d));
}

TEST(CompiledPatternCache, EqualPatternsShareOneCompilation) {
  CompiledPatternCache cache(8);
  auto c1 = cache.Get(WmPattern(10));
  auto c2 = cache.Get(WmPattern(10));  // different object, same value
  EXPECT_EQ(c1.get(), c2.get());  // identical compilation shared
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  auto c3 = cache.Get(WmPattern(11));
  EXPECT_NE(c1.get(), c3.get());
  EXPECT_EQ(cache.misses(), 2u);
  // The cached compilation matches exactly like a fresh one.
  Tuple t = TupleBuilder().I64(0).Ts(10).I64(0).Build();
  EXPECT_TRUE(c1->Matches(t));
  EXPECT_FALSE(CompiledPattern(WmPattern(9)).Matches(t));
}

TEST(CompiledPatternCache, EvictionKeepsHandedOutCompilationsAlive) {
  CompiledPatternCache cache(2);
  auto c1 = cache.Get(WmPattern(1));
  auto c2 = cache.Get(WmPattern(2));
  // Touch 1 so 2 is the LRU victim when 3 arrives.
  (void)cache.Get(WmPattern(1));
  auto c3 = cache.Get(WmPattern(3));
  EXPECT_EQ(cache.size(), 2u);
  // Evicted entry's shared_ptr still works for its holder.
  Tuple t = TupleBuilder().I64(0).Ts(2).I64(0).Build();
  EXPECT_TRUE(c2->Matches(t));
  // Re-requesting the evicted pattern recompiles (a miss, not a hit).
  uint64_t misses_before = cache.misses();
  (void)cache.Get(WmPattern(2));
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(CompiledPatternCache, ClearResetsEntriesAndCounters) {
  CompiledPatternCache cache(4);
  (void)cache.Get(WmPattern(1));
  (void)cache.Get(WmPattern(1));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(CompiledPatternCache, GlobalInstanceCollapsesRepeatExploits) {
  // The engine's exploit sites (queue purge/promote, join table
  // sweeps, guard installs) all route through Global(): a pattern
  // exploited at N relay hops compiles once.
  CompiledPatternCache& g = CompiledPatternCache::Global();
  PunctPattern p = PunctPattern::AllWildcard(4).With(
      3, AttrPattern::Ge(Value::Int64(123456789)));
  (void)g.Get(p);  // may hit or miss depending on prior tests
  uint64_t hits_before = g.hits();
  auto a = g.Get(p);
  auto b = g.Get(p);
  EXPECT_EQ(g.hits(), hits_before + 2);
  EXPECT_EQ(a.get(), b.get());
}

}  // namespace
}  // namespace nstream
