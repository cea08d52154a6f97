// PunctuationCombiner: the one rule that turns punctuation made on N
// input ports into punctuation about the merged stream. A punctuation
// is a claim about a whole stream (§3.1), so a fan-in may pass on only
// what every input has claimed. UnionOp (and so Pace and ShardMerge)
// combines over its inputs; IngestSource over its producers.
//
//   * Watermark patterns (one constrained attribute with a numeric
//     ≤/< bound) merge by the minimum over live ports and are emitted
//     when that minimum rises.
//   * Given partition keys, a pattern that pins every key with '='
//     settles from its owner shard alone; copies from other shards are
//     vacuous and dropped.
//   * Any other pattern is held until every live port has made it or a
//     wider claim. Past kMaxHeld the held set is dropped wholesale: a
//     dropped claim only delays unblocking, it never breaks a result.
//   * A port retires at EOS or quarantine and then counts as having
//     made every claim. Retiring the last port emits nothing: the
//     stream is over.
//
// A port's watermark is kept as (attribute, bound, AttrPattern), so a
// punctuation leaves no heap block behind; only a held claim keeps a
// copy of its pattern.

#ifndef NSTREAM_OPS_PUNCTUATION_COMBINER_H_
#define NSTREAM_OPS_PUNCTUATION_COMBINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "punct/punct_pattern.h"

namespace nstream {

class SnapshotReader;
class SnapshotWriter;

class PunctuationCombiner {
 public:
  static constexpr size_t kMaxHeld = 4096;

  explicit PunctuationCombiner(int num_ports,
                               std::vector<int> partition_keys = {});

  /// Record `punct`, made on `port`, and return every claim that now
  /// holds on the merged stream. Out-of-range and retired ports make
  /// no claims.
  std::vector<Punctuation> Add(int port, const Punctuation& punct);
  /// Retire `port` and return every claim that now holds.
  std::vector<Punctuation> Retire(int port);

  int num_ports() const { return static_cast<int>(ports_.size()); }
  int live_ports() const;
  size_t held() const { return held_.size(); }
  // Claims passed on once every live port made them, claims passed on
  // from their owner shard, and claims dropped from any other shard.
  uint64_t coalesced() const { return coalesced_; }
  uint64_t owner_routed() const { return owner_routed_; }
  uint64_t dropped_vacuous() const { return dropped_vacuous_; }

  void Write(SnapshotWriter* w) const;
  /// Inverse of Write, onto a combiner built with the same port count.
  Status Read(SnapshotReader* r);

 private:
  struct Port {
    bool retired = false;
    int wm_attr = -1;  // -1: no watermark yet
    double wm_bound = 0;
    AttrPattern wm;
  };
  struct Held {
    PunctPattern pattern;
    std::vector<bool> made;  // per port
  };

  bool Settled(const Held& h) const;
  /// Pass on, in arrival order, every held claim that has settled.
  void EmitSettled(std::vector<Punctuation>* out);
  /// Pass on the minimum watermark over live ports if it rose.
  void EmitWatermark(std::vector<Punctuation>* out);

  std::vector<int> partition_keys_;
  std::vector<Port> ports_;
  std::vector<Held> held_;
  int wm_arity_ = 0;
  double emitted_bound_ = -1e300;
  uint64_t coalesced_ = 0;
  uint64_t owner_routed_ = 0;
  uint64_t dropped_vacuous_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_PUNCTUATION_COMBINER_H_
