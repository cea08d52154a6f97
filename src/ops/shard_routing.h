// Shard routing: the one hash-and-place decision shared by everything
// on either side of a partition boundary — the Exchange placing
// tuples, the punctuation combiner deciding which shard owns a
// key-pinned punctuation, and the join's debug tripwire verifying it
// was fed the right slice. Kept free of operator types so operators
// can agree on routing without depending on each other.

#ifndef NSTREAM_OPS_SHARD_ROUTING_H_
#define NSTREAM_OPS_SHARD_ROUTING_H_

#include <cstdint>
#include <vector>

#include "punct/punct_pattern.h"
#include "types/tuple.h"

namespace nstream {

/// The routing hash: splitmix64-finalized Tuple::HashSubset over the
/// partition keys. Deliberately wid-free (unlike the join's table
/// hash) so every window of a key lands on the same shard.
inline uint64_t ShardRoutingHash(const Tuple& t,
                                 const std::vector<int>& keys) {
  uint64_t h = static_cast<uint64_t>(t.HashSubset(keys));
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Shard = hash prefix, mapped onto [0, num_partitions) with a
/// multiply-shift over the top 32 bits — no modulo bias, any fan-out
/// up to 2^32, and the placement stays stable if the join's table-hash
/// scheme ever changes.
inline int ShardOfRoutingHash(uint64_t h, int num_partitions) {
  return static_cast<int>((h >> 32) *
                              static_cast<uint64_t>(num_partitions) >>
                          32);
}

/// Shard owning every tuple a pattern can match, if the pattern pins
/// each partition key with '='; -1 otherwise. A subset with an owner
/// lives entirely on that shard: the owner's claims about it settle
/// the whole stream, and any other shard's claims about it are
/// vacuous.
inline int PatternOwnerShard(const PunctPattern& pattern,
                             const std::vector<int>& partition_keys,
                             int num_partitions) {
  if (partition_keys.empty()) return -1;
  Tuple probe;
  probe.Reserve(static_cast<size_t>(pattern.arity()));
  for (int i = 0; i < pattern.arity(); ++i) probe.Append(Value::Null());
  for (int k : partition_keys) {
    if (k < 0 || k >= pattern.arity()) return -1;
    const AttrPattern& ap = pattern.attr(k);
    if (ap.op() != PatternOp::kEq) return -1;
    probe.mutable_value(k) = ap.operand();
  }
  return ShardOfRoutingHash(ShardRoutingHash(probe, partition_keys),
                            num_partitions);
}

}  // namespace nstream

#endif  // NSTREAM_OPS_SHARD_ROUTING_H_
