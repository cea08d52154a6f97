// CompiledPattern: a PunctPattern pre-lowered for the tuple hot path.
// Pattern matching rides every guarded tuple, every queue purge/promote
// sweep, and every feedback exploit, so the interpreted
// attribute-by-attribute walk (wildcard test, Value::Compare dispatch)
// is worth compiling away: constrained indices are extracted once, and
// each constrained attribute gets a typed comparison plan — the
// dominant timestamp prefix/range patterns reduce to one or two int64
// compares with no allocation and no variant re-interpretation.

#ifndef NSTREAM_PUNCT_COMPILED_PATTERN_H_
#define NSTREAM_PUNCT_COMPILED_PATTERN_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "punct/punct_pattern.h"
#include "stream/columnar.h"
#include "types/tuple.h"

namespace nstream {

class CompiledPattern {
 public:
  /// Compiles the empty pattern (arity 0).
  CompiledPattern() = default;
  explicit CompiledPattern(PunctPattern pattern);

  const PunctPattern& pattern() const { return pattern_; }
  int arity() const { return pattern_.arity(); }
  /// No constrained attributes: matches every tuple of the right arity.
  bool always_true() const { return checks_.empty(); }

  /// Exactly PunctPattern::Matches, minus the interpretation overhead.
  bool Matches(const Tuple& t) const {
    if (t.size() != pattern_.arity()) return false;
    for (const Check& c : checks_) {
      if (!MatchCheck(c, t.value(c.index))) return false;
    }
    return true;
  }

  /// Matches() against one (physical) row of a columnar block — the
  /// columns stand in for the tuple's value span.
  bool MatchesRow(const ColumnarBlock& b, uint32_t row) const {
    if (static_cast<int>(b.cols()) != pattern_.arity()) return false;
    for (const Check& c : checks_) {
      if (!MatchCheck(c, b.column(c.index)[row])) return false;
    }
    return true;
  }

  /// Purge exploit over a columnar page: drop matching rows by
  /// editing the selection vector — survivors never move. When every
  /// check lowered to exact-integer operands AND its column is
  /// uniformly int64-imaged (the dominant timestamp-range purge), the
  /// per-value tag dispatch hoists out entirely: the row loop is raw
  /// unchecked_int64 compares over contiguous columns. Returns the
  /// number of rows dropped.
  int FilterColumnarPurge(ColumnarBlock* b) const {
    if (static_cast<int>(b->cols()) != pattern_.arity()) return 0;
    const int before = static_cast<int>(b->size());
    if (always_true()) {
      b->KeepIf([](uint32_t) { return false; });
      return before;
    }
    struct IntCheck {
      const Value* col;
      PatternOp op;
      int64_t lo, hi;
    };
    IntCheck ics[kMaxHoistedChecks];
    size_t n_ic = 0;
    bool all_int = checks_.size() <= kMaxHoistedChecks;
    for (const Check& c : checks_) {
      if (!all_int) break;
      if (c.op == PatternOp::kIsNull || c.op == PatternOp::kNotNull ||
          c.cls != OperandClass::kInt ||
          b->column_class(c.index) != ColumnClass::kInt64) {
        all_int = false;
        break;
      }
      ics[n_ic++] = {b->column(c.index), c.op, c.ilo, c.ihi};
    }
    if (all_int) {
      b->KeepIf([&](uint32_t r) {
        for (size_t k = 0; k < n_ic; ++k) {
          if (!ApplyOp<int64_t>(ics[k].op, ics[k].col[r].unchecked_int64(),
                                ics[k].lo, ics[k].hi)) {
            return true;  // check failed → row not matched → keep
          }
        }
        return false;  // all checks matched → purge
      });
    } else {
      b->KeepIf([&](uint32_t r) { return !MatchesRow(*b, r); });
    }
    return before - static_cast<int>(b->size());
  }

 private:
  // Hoisted-check scratch bound; patterns with more constrained
  // attributes (unheard of — exploits constrain 1-2) take the
  // row-wise path.
  static constexpr size_t kMaxHoistedChecks = 8;
  // How the operand(s) of a comparison check were classified at
  // compile time.
  enum class OperandClass : uint8_t {
    kInt,      // all operands int64/timestamp: exact integer compares
    kDouble,   // all numeric, at least one double: widened compares
    kGeneric,  // string/bool/NaN operands: fall back to AttrPattern
  };

  struct Check {
    int index = 0;
    PatternOp op = PatternOp::kAny;
    OperandClass cls = OperandClass::kGeneric;
    int64_t ilo = 0;  // operand (and range-hi) as exact integers
    int64_t ihi = 0;
    double dlo = 0;   // operand (and range-hi) double images
    double dhi = 0;
  };

  template <typename T>
  static bool ApplyOp(PatternOp op, T x, T lo, T hi) {
    switch (op) {
      case PatternOp::kEq:
        return x == lo;
      case PatternOp::kNe:
        return x != lo;
      case PatternOp::kLt:
        return x < lo;
      case PatternOp::kLe:
        return x <= lo;
      case PatternOp::kGt:
        return x > lo;
      case PatternOp::kGe:
        return x >= lo;
      case PatternOp::kRange:
        return x >= lo && x <= hi;
      default:
        return false;
    }
  }

  bool MatchCheck(const Check& c, const Value& v) const {
    if (c.op == PatternOp::kIsNull) return v.is_null();
    if (c.op == PatternOp::kNotNull) return !v.is_null();
    if (c.cls == OperandClass::kGeneric) {
      // String/bool operands, or numeric operands that cannot be
      // lowered exactly: interpret via the original pattern.
      return pattern_.attr(c.index).Matches(v);
    }
    // Raw-payload fast path over Value's flat representation: one tag
    // test routes the dominant timestamp/int64 shape to a pair of
    // integer compares on the raw 8-byte payload — no accessor
    // re-dispatch between the tag check and the comparison.
    if (v.is_int64_rep()) {
      int64_t x = v.unchecked_int64();
      if (c.cls == OperandClass::kInt) {
        return ApplyOp<int64_t>(c.op, x, c.ilo, c.ihi);
      }
      return ApplyOp<double>(c.op, static_cast<double>(x), c.dlo,
                             c.dhi);
    }
    if (v.type() == ValueType::kDouble) {
      const double x = v.unchecked_double();
      // IEEE compares call NaN unordered; Value sorts it above every
      // number, so NaN takes the interpreted path.
      if (std::isnan(x)) return pattern_.attr(c.index).Matches(v);
      return ApplyOp<double>(c.op, x, c.dlo, c.dhi);
    }
    if (v.is_null()) return false;  // comparison patterns never match NULL
    // Numeric operand vs string/bool value: incomparable, and
    // strings/bools are rare — interpret via the original pattern.
    return pattern_.attr(c.index).Matches(v);
  }

  PunctPattern pattern_;
  std::vector<Check> checks_;
};

/// Structural hash of a PunctPattern, compatible with its operator==
/// (equal patterns hash equally). Used as the cache probe key.
uint64_t HashPunctPattern(const PunctPattern& p);

/// CompiledPatternCache: pattern-identity-keyed cache of compilations.
///
/// A feedback punctuation relayed through a deep plan is exploited at
/// every hop, and every exploit site compiles its pattern: the queue
/// purge/promote sweeps, the join's table sweep, and each GuardSet
/// install. Hops whose schema maps are identities (Select / Project /
/// Impute / PACE chains, Exchange→shard fan-out where every shard
/// receives the same derived pattern) all see the *same* pattern, so a
/// small cache keyed by pattern identity collapses those N compiles
/// into one. Entries are shared_ptr so an evicted compilation stays
/// alive for whoever still holds it (e.g. a long-lived guard).
///
/// Thread-safe (mutex): lookups happen on the control/feedback path —
/// per relay hop, never per tuple — so a lock is fine there, and the
/// shared compilation is immutable afterwards.
class CompiledPatternCache {
 public:
  explicit CompiledPatternCache(size_t capacity = 64);

  /// The process-wide instance the engine's exploit sites share.
  static CompiledPatternCache& Global();

  /// Return the cached compilation of `p`, compiling on miss. Identity
  /// is structural: hash probe + PunctPattern::operator== confirm.
  std::shared_ptr<const CompiledPattern> Get(const PunctPattern& p);

  // Hit/miss counters (tests assert relay hops stop recompiling).
  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;
  /// Drop all entries and zero the counters (test isolation).
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t last_used = 0;
    std::shared_ptr<const CompiledPattern> compiled;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<Slot> slots_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_PUNCT_COMPILED_PATTERN_H_
