#include "ops/exchange.h"

#include <utility>

#include "common/string_util.h"

namespace nstream {

namespace {

/// Coalescing-map key: intent glyph plus the rendered pattern, which is
/// canonical for identical patterns (this path is control-plane cold).
std::string PendingKey(char tag, const PunctPattern& pattern) {
  std::string key(1, tag);
  key += pattern.ToString();
  return key;
}

char IntentTag(FeedbackIntent intent) {
  switch (intent) {
    case FeedbackIntent::kAssumed:
      return 'A';
    case FeedbackIntent::kDesired:
      return 'D';
    case FeedbackIntent::kDemanded:
      return '!';
  }
  return '?';
}

}  // namespace

// ---------------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------------

Exchange::Exchange(std::string name, int num_partitions,
                   ExchangeOptions options)
    : Operator(std::move(name), /*num_inputs=*/1, num_partitions),
      options_(std::move(options)),
      staged_(static_cast<size_t>(num_partitions)),
      routed_(static_cast<size_t>(num_partitions), 0),
      port_guards_(static_cast<size_t>(num_partitions)) {
  if (options_.stage_page_size <= 0) options_.stage_page_size = 1;
}

Status Exchange::InferSchemas() {
  if (num_outputs() < 1) {
    return Status::InvalidArgument(name() + ": needs >= 1 partition");
  }
  if (options_.partition_keys.empty()) {
    return Status::InvalidArgument(
        name() + ": partition_keys must not be empty");
  }
  for (int k : options_.partition_keys) {
    if (k < 0 || k >= input_schema(0)->num_fields()) {
      return Status::OutOfRange(StringPrintf(
          "%s: partition key %d out of range (arity %d)",
          name().c_str(), k, input_schema(0)->num_fields()));
    }
  }
  return Operator::InferSchemas();  // every output mirrors the input
}

Status Exchange::ProcessTuple(int, const Tuple& tuple) {
  if (input_guards_.Blocks(tuple)) {
    ++stats_.input_guard_drops;
    return Status::OK();
  }
  int shard = ShardOf(tuple);
  if (port_guards_[static_cast<size_t>(shard)].Blocks(tuple)) {
    ++stats_.output_guard_drops;
    return Status::OK();
  }
  ++routed_[static_cast<size_t>(shard)];
  Emit(shard, tuple);
  return Status::OK();
}

void Exchange::StageTuple(int shard, Tuple t) {
  Page& page = staged_[static_cast<size_t>(shard)];
  // A staging page outlives the input page it partitions, so a tuple
  // still backed by the input page's arena is re-homed (bump-copied)
  // into the staging page's own arena; owned tuples keep the free move.
  page.AddTuple(std::move(t));
  if (static_cast<int>(page.size()) >= options_.stage_page_size) {
    EmitPage(shard, std::move(page));
    page = Page();
  }
}

Status Exchange::FlushStaged() {
  for (int s = 0; s < num_outputs(); ++s) {
    Page& page = staged_[static_cast<size_t>(s)];
    if (page.empty()) continue;
    EmitPage(s, std::move(page));
    page = Page();
  }
  return Status::OK();
}

Status Exchange::ProcessPage(int port, Page&& page, TimeMs* tick) {
  page.EnsureRowLayout();  // shard routing moves tuples element-wise
  for (StreamElement& e : page.mutable_elements()) {
    if (tick) ++*tick;
    switch (e.kind()) {
      case ElementKind::kTuple: {
        ++stats_.tuples_in;
        Tuple& t = e.mutable_tuple();
        if (input_guards_.Blocks(t)) {
          ++stats_.input_guard_drops;
          break;
        }
        int shard = ShardOf(t);
        if (port_guards_[static_cast<size_t>(shard)].Blocks(t)) {
          ++stats_.output_guard_drops;
          break;
        }
        ++routed_[static_cast<size_t>(shard)];
        StageTuple(shard, std::move(t));
        break;
      }
      case ElementKind::kPunctuation:
        NSTREAM_RETURN_NOT_OK(ProcessPunctuation(port, e.punct()));
        break;
      case ElementKind::kEndOfStream:
        NSTREAM_RETURN_NOT_OK(ProcessEos(port));
        break;
    }
  }
  return Status::OK();
}

Status Exchange::ProcessPunctuation(int, const Punctuation& punct) {
  ++stats_.puncts_in;
  // No tuple may overtake the punctuation.
  NSTREAM_RETURN_NOT_OK(FlushStaged());
  input_guards_.ExpireCovered(punct);
  for (int s = 0; s < num_outputs(); ++s) {
    port_guards_[static_cast<size_t>(s)].ExpireCovered(punct);
    EmitPunct(s, punct);
  }
  // Feedback claims covered by this punctuation can never coalesce
  // further (their subset is already complete); drop the bookkeeping.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (punct.Covers(it->second.pattern)) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status Exchange::OnAllInputsEos() {
  NSTREAM_RETURN_NOT_OK(FlushStaged());
  return Operator::OnAllInputsEos();
}

Status Exchange::HandleAssumed(int out_port,
                               const FeedbackPunctuation& fb) {
  // Fast path: a pattern pinning every partition key with '=' lives
  // entirely on one shard (gate/impatient feedback has this shape).
  // The owner's claim alone kills the subset stream-wide — exploit and
  // relay immediately; waiting for other shards would wait forever,
  // since they never see the subset and never concur.
  int owner = PatternOwnerShard(fb.pattern(), options_.partition_keys,
                                num_outputs());
  if (owner >= 0) {
    if (owner != out_port) {
      // Vacuously true about the sender's slice; nothing to do.
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    input_guards_.Add(fb.pattern());
    stats_.work_avoided +=
        static_cast<uint64_t>(ctx()->PurgeInput(0, fb.pattern()));
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      ++owner_relays_;
      RelayFeedback(0, fb);
    }
    return Status::OK();
  }

  // General pattern: a shard's assumption covers only the slice routed
  // to it. Guard that output port — never the shared input — until
  // every shard has made an equivalent claim.
  port_guards_[static_cast<size_t>(out_port)].Add(fb.pattern());

  if (pending_.size() >= kMaxPendingFeedback) pending_.clear();
  Pending& pending = pending_[PendingKey(IntentTag(fb.intent()),
                                         fb.pattern())];
  if (pending.ports.empty()) {
    pending.ports.assign(static_cast<size_t>(num_outputs()), false);
    pending.pattern = fb.pattern();
  }
  if (!pending.ports[static_cast<size_t>(out_port)]) {
    pending.ports[static_cast<size_t>(out_port)] = true;
    ++pending.count;
  }
  if (pending.count < num_outputs()) return Status::OK();

  // Every shard has assumed the subset: it is dead stream-wide. Guard
  // the input (cheaper than routing then dropping), purge anything
  // already buffered, and relay one coalesced claim upstream.
  input_guards_.Add(fb.pattern());
  stats_.work_avoided +=
      static_cast<uint64_t>(ctx()->PurgeInput(0, fb.pattern()));
  if (PolicyAtLeast(options_.feedback_policy,
                    FeedbackPolicy::kExploitAndPropagate)) {
    ++coalesced_relays_;
    RelayFeedback(0, fb);
  }
  pending_.erase(PendingKey(IntentTag(fb.intent()), fb.pattern()));
  return Status::OK();
}

Status Exchange::ProcessFeedback(int out_port,
                                 const FeedbackPunctuation& fb) {
  if (options_.feedback_policy == FeedbackPolicy::kIgnore ||
      fb.pattern().arity() != input_schema(0)->num_fields()) {
    ++stats_.feedback_ignored;
    return Status::OK();
  }
  if (fb.intent() == FeedbackIntent::kAssumed) {
    return HandleAssumed(out_port, fb);
  }
  // Desired / demanded: prioritization is content-neutral, so the
  // first shard to ask is enough — the promoted tuples serve every
  // shard's copy of the request. Key-pinned requests (the impatient
  // join's shape) are handled without dedup state: only the owner
  // shard can issue them usefully, and the sender already rate-limits
  // per (window, key).
  int owner = PatternOwnerShard(fb.pattern(), options_.partition_keys,
                                num_outputs());
  if (owner >= 0) {
    if (owner != out_port) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    ctx()->PrioritizeInput(0, fb.pattern());
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      RelayFeedback(0, fb);
    }
    return Status::OK();
  }
  if (pending_.size() >= kMaxPendingFeedback) pending_.clear();
  Pending& pending = pending_[PendingKey(IntentTag(fb.intent()),
                                         fb.pattern())];
  bool first = pending.ports.empty();
  if (first) {
    pending.ports.assign(static_cast<size_t>(num_outputs()), false);
    pending.pattern = fb.pattern();
    ctx()->PrioritizeInput(0, fb.pattern());
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      RelayFeedback(0, fb);
    }
  }
  if (!pending.ports[static_cast<size_t>(out_port)]) {
    pending.ports[static_cast<size_t>(out_port)] = true;
    ++pending.count;
  }
  if (pending.count == num_outputs()) {
    pending_.erase(PendingKey(IntentTag(fb.intent()), fb.pattern()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ShardMerge
// ---------------------------------------------------------------------------

Status ShardMerge::ProcessPage(int port, Page&& page, TimeMs* tick) {
  // Punctuation/EOS flush their page, so they can only sit last: a
  // columnar page, or a row page with a tuple in last position, is all
  // tuples and — absent guards — forwards wholesale with one queue
  // lock, layout intact.
  if (guards_.empty() && !page.empty() &&
      (page.is_columnar() || page.elements().back().is_tuple())) {
    if (tick) *tick += static_cast<TimeMs>(page.size());
    stats_.tuples_in += page.size();
    EmitPage(0, std::move(page));
    return Status::OK();
  }
  return Operator::ProcessPage(port, std::move(page), tick);
}

// ---------------------------------------------------------------------------
// MakePartitionedJoin
// ---------------------------------------------------------------------------

Result<PartitionedJoinPlan> MakePartitionedJoin(QueryPlan* plan,
                                                const std::string& name,
                                                JoinOptions options,
                                                int num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument(name + ": num_shards must be >= 1");
  }
  if (options.left_keys.empty() || options.right_keys.empty()) {
    return Status::InvalidArgument(
        name + ": partitioned join requires equi-join keys");
  }

  PartitionedJoinPlan out;
  ExchangeOptions left_xopt;
  left_xopt.partition_keys = options.left_keys;
  out.left_exchange = plan->AddOp(std::make_unique<Exchange>(
      name + ".xchg.left", num_shards, std::move(left_xopt)));
  ExchangeOptions right_xopt;
  right_xopt.partition_keys = options.right_keys;
  out.right_exchange = plan->AddOp(std::make_unique<Exchange>(
      name + ".xchg.right", num_shards, std::move(right_xopt)));

  ShardMergeOptions mopt;
  mopt.union_options.feedback_policy = options.feedback_policy;
  // Left attributes keep their positions in the join output schema, so
  // the output-side partition keys are exactly the left key positions.
  mopt.partition_keys = options.left_keys;
  out.merge = plan->AddOp(std::make_unique<ShardMerge>(
      name + ".merge", num_shards, std::move(mopt)));

  for (int s = 0; s < num_shards; ++s) {
    JoinOptions shard_options = options;
    shard_options.shard_index = s;
    shard_options.shard_count = num_shards;
    auto* shard = plan->AddOp(std::make_unique<SymmetricHashJoin>(
        name + ".shard" + std::to_string(s), std::move(shard_options)));
    // Pin shard s to worker (s mod pool) under the pooled scheduler:
    // each shard's hash state and input queues stay on one worker.
    shard->set_scheduler_affinity(s);
    out.shards.push_back(shard);
    NSTREAM_RETURN_NOT_OK(
        plan->Connect(out.left_exchange->id(), s, shard->id(), 0));
    NSTREAM_RETURN_NOT_OK(
        plan->Connect(out.right_exchange->id(), s, shard->id(), 1));
    NSTREAM_RETURN_NOT_OK(
        plan->Connect(shard->id(), 0, out.merge->id(), s));
  }
  return out;
}

}  // namespace nstream
