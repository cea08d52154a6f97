// Guards: the state an operator installs when exploiting assumed
// feedback (§4.3). An *input guard* drops tuples before computation; an
// *output guard* suppresses results after computation. Both hold a set
// of punctuation patterns (the union of received feedback).
//
// §4.4's state-accumulation concern is addressed here: a guard pattern
// whose attributes are delimited will eventually be *covered* by
// embedded punctuation ("no more such tuples will ever arrive"), at
// which point the guard is dead weight and is expired.

#ifndef NSTREAM_CORE_GUARDS_H_
#define NSTREAM_CORE_GUARDS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "punct/compiled_pattern.h"
#include "punct/punct_pattern.h"
#include "types/tuple.h"

namespace nstream {

/// A set of assumed-feedback patterns acting as a filter.
class GuardSet {
 public:
  GuardSet() = default;

  /// Install a guard. Patterns subsumed by an existing guard are
  /// dropped; existing guards subsumed by the new one are replaced.
  /// Returns true if the set changed.
  bool Add(const PunctPattern& pattern);

  /// Does any guard match this tuple? (matching tuples are to be
  /// dropped / suppressed).
  bool Blocks(const Tuple& t) const;
  /// The same test and counters for one physical row of a columnar
  /// block, read in place.
  bool Blocks(const ColumnarBlock& b, uint32_t row) const;

  /// Expire guards covered by embedded punctuation: if `punct`
  /// guarantees no more tuples matching a guard will arrive, that
  /// guard can never block anything again — remove it. Returns the
  /// number of guards removed.
  int ExpireCovered(const Punctuation& punct);

  void Clear() {
    patterns_.clear();
    compiled_.clear();
  }
  int size() const { return static_cast<int>(patterns_.size()); }
  bool empty() const { return patterns_.empty(); }
  const std::vector<PunctPattern>& patterns() const { return patterns_; }

  // Lifetime counters (for the guard-expiry ablation bench).
  uint64_t total_installed() const { return total_installed_; }
  uint64_t total_expired() const { return total_expired_; }
  uint64_t total_blocked() const { return total_blocked_; }

  std::string ToString() const;

 private:
  // patterns_ and compiled_ are parallel: patterns_ drives the
  // subsumption logic (Add/ExpireCovered), compiled_ the per-tuple
  // Blocks hot path. Compilations come from the global
  // CompiledPatternCache, so the N guard sets a relayed feedback
  // installs along its path share one compilation.
  std::vector<PunctPattern> patterns_;
  std::vector<std::shared_ptr<const CompiledPattern>> compiled_;
  uint64_t total_installed_ = 0;
  uint64_t total_expired_ = 0;
  mutable uint64_t total_blocked_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_CORE_GUARDS_H_
