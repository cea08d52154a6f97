// Exchange & ShardMerge: the partitioned-parallelism pair. Exchange
// splits one stream into N hash-partitioned substreams (shards);
// ShardMerge reassembles N shard outputs into one stream. Between them
// sit N independent instances of a stateful operator — in this engine,
// SymmetricHashJoin shards each owning its slice of both hash tables
// with no shared locks (see MakePartitionedJoin below).
//
// Punctuation and feedback semantics across the partition boundary:
//
//   * Data tuples route to exactly one shard by a prefix of the 64-bit
//     key-subset hash (all windows of a key colocate, so equi-join
//     partners always meet).
//   * Embedded punctuation BROADCASTS to every shard: a completeness
//     claim over the whole stream holds a fortiori over each
//     partition. Staged tuple pages are flushed first so no tuple ever
//     overtakes a punctuation.
//   * At the merge, per-shard punctuations COALESCE through UnionOp's
//     PunctuationCombiner, given the partition keys so that a
//     key-pinned claim settles from its owner shard alone.
//   * Feedback punctuation arriving at the merge relays to EVERY shard
//     (each holds part of the addressed state). Feedback a shard sends
//     upstream reaches the Exchange, which exploits it as a guard on
//     that shard's output port — a shard's claim covers only its slice
//     — and relays upstream only once all N shards have made an
//     equivalent claim (at which point the subset is dead everywhere
//     and upstream operators may purge/guard it wholesale).

#ifndef NSTREAM_OPS_EXCHANGE_H_
#define NSTREAM_OPS_EXCHANGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "exec/operator.h"
#include "exec/query_plan.h"
#include "ops/shard_routing.h"
#include "ops/symmetric_hash_join.h"
#include "ops/union_op.h"

namespace nstream {

struct ExchangeOptions {
  // Attribute positions whose values determine the target shard.
  std::vector<int> partition_keys;
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
  // Elements staged per output before a page is pushed (page-granular
  // fast path; one queue lock per page instead of per tuple).
  int stage_page_size = 256;
};

class Exchange final : public Operator {
 public:
  Exchange(std::string name, int num_partitions, ExchangeOptions options);

  // Routing delegates to ops/shard_routing.h (shared with ShardMerge
  // and the join's debug tripwire); kept as statics here because the
  // Exchange is the routing authority callers think of first.
  static uint64_t RoutingHash(const Tuple& t,
                              const std::vector<int>& keys) {
    return ShardRoutingHash(t, keys);
  }
  static int ShardOfHash(uint64_t h, int num_partitions) {
    return ShardOfRoutingHash(h, num_partitions);
  }
  int ShardOf(const Tuple& t) const {
    return ShardOfHash(RoutingHash(t, options_.partition_keys),
                       num_outputs());
  }

  Status InferSchemas() override;
  Status ProcessTuple(int port, const Tuple& tuple) override;
  /// Batch path: partitions the page into per-shard staging pages,
  /// which fill across input pages; each goes out with one EmitPage
  /// when full, when the executor parks the task (FlushStaged), at
  /// EOS, and before punctuation, which flushes all staging (order
  /// preservation) and then broadcasts.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override;
  Status ProcessPunctuation(int port, const Punctuation& punct) override;
  Status OnAllInputsEos() override;
  Status FlushStaged() override;
  Status ProcessFeedback(int out_port,
                         const FeedbackPunctuation& fb) override;

  // Introspection (tests / benches).
  uint64_t routed(int port) const {
    return routed_[static_cast<size_t>(port)];
  }
  const GuardSet& port_guards(int port) const {
    return port_guards_[static_cast<size_t>(port)];
  }
  const GuardSet& input_guards() const { return input_guards_; }
  uint64_t coalesced_relays() const { return coalesced_relays_; }
  uint64_t owner_relays() const { return owner_relays_; }
  uint64_t pending_feedback() const {
    return static_cast<uint64_t>(pending_.size());
  }

 private:
  struct Pending {
    std::vector<bool> ports;
    int count = 0;
    PunctPattern pattern;  // for punctuation-coverage expiry
  };

  void StageTuple(int shard, Tuple t);
  Status HandleAssumed(int out_port, const FeedbackPunctuation& fb);

  ExchangeOptions options_;
  // Per-output staging pages for the batch path.
  std::vector<Page> staged_;
  std::vector<uint64_t> routed_;
  // Guards installed from per-shard assumed feedback: tuples routed to
  // a guarded port are dropped before the queue hop.
  std::vector<GuardSet> port_guards_;
  // Guard over the whole input, installed once feedback has coalesced
  // across every shard (cheaper than routing then dropping).
  GuardSet input_guards_;
  // (intent glyph + pattern) → which ports have claimed it. Entries
  // are reclaimed when the claim coalesces, when embedded punctuation
  // covers the pattern, or — as a backstop on unpunctuated streams —
  // wholesale once the map exceeds kMaxPendingFeedback (dropping a
  // pending claim only forgoes an optimization; the per-port guards
  // already installed stay correct).
  static constexpr size_t kMaxPendingFeedback = 4096;
  std::map<std::string, Pending> pending_;
  uint64_t coalesced_relays_ = 0;
  uint64_t owner_relays_ = 0;
};

struct ShardMergeOptions {
  UnionOptions union_options;
  // Partition-key attribute positions in the MERGED (output) schema,
  // plus the partition fan-in, enabling the single-owner punctuation
  // fast path: a pattern that pins every partition key with '=' is
  // routable — only its owner shard can ever produce matching tuples,
  // so that shard's punctuation alone settles the claim stream-wide.
  std::vector<int> partition_keys;
};

class ShardMerge final : public UnionOp {
 public:
  ShardMerge(std::string name, int num_inputs,
             ShardMergeOptions options = {})
      : UnionOp(std::move(name), num_inputs, options.union_options) {
    combiner_ = PunctuationCombiner(num_inputs, options.partition_keys);
  }

  /// All-tuple pages forward wholesale (one EmitPage) when no guards
  /// are installed; otherwise falls back to the element-wise path.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override;

  uint64_t coalesced_puncts() const { return combiner_.coalesced(); }
  uint64_t owner_routed_puncts() const { return combiner_.owner_routed(); }
  uint64_t dropped_vacuous_puncts() const {
    return combiner_.dropped_vacuous();
  }
};

/// The wired fan-out/fan-in subplan MakePartitionedJoin returns.
struct PartitionedJoinPlan {
  Exchange* left_exchange = nullptr;   // connect left producer here
  Exchange* right_exchange = nullptr;  // connect right producer here
  std::vector<SymmetricHashJoin*> shards;
  ShardMerge* merge = nullptr;  // connect consumers to merge output 0
};

/// Builds `Partitioned(join, N)`: two Exchanges (one per join input,
/// partitioning by the respective key subset with the SAME routing
/// hash, so matching tuples meet in the same shard), N join shard
/// instances, and a ShardMerge configured with the join's output-side
/// partition keys. The caller connects producers to the exchanges'
/// input port 0 and consumers to merge output 0.
///
///            ┌→ join.shard0 ┐
///   L →  xchgL  ⋮            ShardMerge → downstream
///   R →  xchgR ─→ join.shardN-1 ┘
Result<PartitionedJoinPlan> MakePartitionedJoin(QueryPlan* plan,
                                                const std::string& name,
                                                JoinOptions options,
                                                int num_shards);

}  // namespace nstream

#endif  // NSTREAM_OPS_EXCHANGE_H_
