#include "punct/compiled_pattern.h"

#include <cmath>

namespace nstream {
namespace {

bool IsIntLike(const Value& v) {
  return v.type() == ValueType::kInt64 ||
         v.type() == ValueType::kTimestamp;
}

// An int64 operand that double precision cannot represent exactly
// must not be compared through its double image: the interpreted
// matcher compares it against int64 values exactly.
bool IntOperandSafeInDouble(const Value& v) {
  if (!IsIntLike(v)) return true;
  int64_t x = v.int64_value();
  return x > -Value::kDoubleExactBound && x < Value::kDoubleExactBound;
}

// Raw IEEE compares disagree with Value's ordering on NaN.
bool IsNaN(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.double_value());
}

double DoubleImage(const Value& v) {
  return v.type() == ValueType::kDouble
             ? v.double_value()
             : static_cast<double>(v.int64_value());
}

}  // namespace

uint64_t HashPunctPattern(const PunctPattern& p) {
  // FNV-1a over (arity, per-attr op, operand hashes). Wildcards
  // contribute their op byte only, so patterns differing in any
  // constrained position diverge.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(p.arity()));
  for (int i = 0; i < p.arity(); ++i) {
    const AttrPattern& ap = p.attr(i);
    mix(static_cast<uint64_t>(ap.op()));
    if (ap.is_wildcard()) continue;
    mix(static_cast<uint64_t>(ap.operand().Hash()));
    if (ap.op() == PatternOp::kRange) {
      mix(static_cast<uint64_t>(ap.hi().Hash()));
    }
  }
  return h;
}

CompiledPatternCache::CompiledPatternCache(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {
  slots_.reserve(capacity_);
}

CompiledPatternCache& CompiledPatternCache::Global() {
  static CompiledPatternCache* cache = new CompiledPatternCache();
  return *cache;
}

std::shared_ptr<const CompiledPattern> CompiledPatternCache::Get(
    const PunctPattern& p) {
  const uint64_t hash = HashPunctPattern(p);
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  for (Slot& s : slots_) {
    // Hash narrows; deep equality confirms (a colliding pattern must
    // not be handed someone else's compilation).
    if (s.hash == hash && s.compiled->pattern() == p) {
      s.last_used = tick_;
      ++hits_;
      return s.compiled;
    }
  }
  ++misses_;
  Slot slot;
  slot.hash = hash;
  slot.last_used = tick_;
  slot.compiled = std::make_shared<const CompiledPattern>(p);
  if (slots_.size() >= capacity_) {
    // Evict the least-recently-used entry. Holders of the evicted
    // shared_ptr keep their compilation alive.
    size_t victim = 0;
    for (size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_used < slots_[victim].last_used) victim = i;
    }
    slots_[victim] = std::move(slot);
    return slots_[victim].compiled;
  }
  slots_.push_back(std::move(slot));
  return slots_.back().compiled;
}

uint64_t CompiledPatternCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t CompiledPatternCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t CompiledPatternCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

void CompiledPatternCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  tick_ = hits_ = misses_ = 0;
}

CompiledPattern::CompiledPattern(PunctPattern pattern)
    : pattern_(std::move(pattern)) {
  for (int i = 0; i < pattern_.arity(); ++i) {
    const AttrPattern& ap = pattern_.attr(i);
    if (ap.is_wildcard()) continue;
    Check c;
    c.index = i;
    c.op = ap.op();
    if (c.op != PatternOp::kIsNull && c.op != PatternOp::kNotNull) {
      const Value& lo = ap.operand();
      bool has_hi = c.op == PatternOp::kRange;
      const Value& hi = ap.hi();
      if (IsIntLike(lo) && (!has_hi || IsIntLike(hi))) {
        c.cls = OperandClass::kInt;
        c.ilo = lo.int64_value();
        c.ihi = has_hi ? hi.int64_value() : 0;
        c.dlo = static_cast<double>(c.ilo);
        c.dhi = static_cast<double>(c.ihi);
      } else if (lo.is_numeric() && (!has_hi || hi.is_numeric()) &&
                 !IsNaN(lo) && (!has_hi || !IsNaN(hi)) &&
                 IntOperandSafeInDouble(lo) &&
                 (!has_hi || IntOperandSafeInDouble(hi))) {
        // Mixed int/double operands (only possible for Range): the
        // interpreted matcher compares an int64 value against an int64
        // bound exactly, so the bound is lowered to double only when
        // double precision preserves it.
        c.cls = OperandClass::kDouble;
        c.dlo = DoubleImage(lo);
        c.dhi = has_hi ? DoubleImage(hi) : 0;
      } else {
        c.cls = OperandClass::kGeneric;
      }
    }
    checks_.push_back(c);
  }
}

}  // namespace nstream
