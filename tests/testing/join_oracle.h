// NestedLoopJoin: an input-derived reference for SymmetricHashJoin. It
// compares every left tuple with every right tuple of its window — no
// hash tables, pages, staging or executor — so a suite checks the
// engine's join against its two feeds rather than against another
// configuration of the engine.

#ifndef NSTREAM_TESTS_TESTING_JOIN_ORACLE_H_
#define NSTREAM_TESTS_TESTING_JOIN_ORACLE_H_

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ops/symmetric_hash_join.h"

namespace nstream {
namespace testing_util {

/// The results of `opts`'s join over the two feeds, each rendered with
/// Tuple::ToString: every (left, right) pair in the same tumbling
/// window (any pair, when not windowed) with equal keys, as the left
/// attributes then the right's non-key attributes; under left_outer,
/// also each left tuple that matched nothing, with NULL right
/// attributes. A tuple whose timestamp is not an integer falls in
/// window 0, as in the join. Covers feeds without punctuation (so no
/// stragglers), feedback, gates or sharding; the right feed must be
/// non-empty (it gives the right arity).
inline std::multiset<std::string> NestedLoopJoin(
    const std::vector<Tuple>& left, const std::vector<Tuple>& right,
    const JoinOptions& opts) {
  EXPECT_FALSE(right.empty());
  EXPECT_TRUE(!opts.window_join || opts.window.tumbling());
  auto wid = [&](const Tuple& t, int ts_attr) -> int64_t {
    if (!opts.window_join) return 0;
    Result<int64_t> ts = t.value(ts_attr).AsInt64();
    return ts.ok() ? WindowSpec::FloorDiv(ts.value(), opts.window.slide_ms)
                   : 0;
  };
  std::vector<int> right_nonkey;
  for (int i = 0; !right.empty() && i < right.front().size(); ++i) {
    bool is_key = false;
    for (int k : opts.right_keys) is_key |= k == i;
    if (!is_key) right_nonkey.push_back(i);
  }
  auto left_values = [](const Tuple& l) {
    std::vector<Value> row;
    for (int i = 0; i < l.size(); ++i) row.push_back(l.value(i));
    return row;
  };
  std::multiset<std::string> out;
  for (const Tuple& l : left) {
    bool matched = false;
    for (const Tuple& r : right) {
      if (wid(l, opts.left_ts) != wid(r, opts.right_ts) ||
          !l.EqualsSubset(r, opts.left_keys, opts.right_keys)) {
        continue;
      }
      matched = true;
      std::vector<Value> row = left_values(l);
      for (int i : right_nonkey) row.push_back(r.value(i));
      out.insert(Tuple(std::move(row)).ToString());
    }
    if (opts.left_outer && !matched) {
      std::vector<Value> row = left_values(l);
      row.resize(row.size() + right_nonkey.size(), Value::Null());
      out.insert(Tuple(std::move(row)).ToString());
    }
  }
  return out;
}

}  // namespace testing_util
}  // namespace nstream

#endif  // NSTREAM_TESTS_TESTING_JOIN_ORACLE_H_
