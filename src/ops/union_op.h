// Union: merges N same-schema inputs into one output. Input punctuation
// goes through a PunctuationCombiner, and an input at EOS retires its
// port. Feedback over the output schema applies verbatim to every
// input (identity maps), so relaying is always safe; its guards expire
// only on combined claims.

#ifndef NSTREAM_OPS_UNION_OP_H_
#define NSTREAM_OPS_UNION_OP_H_

#include <string>
#include <vector>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "exec/operator.h"
#include "ops/punctuation_combiner.h"
#include "recovery/snapshot.h"

namespace nstream {

struct UnionOptions {
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
};

class UnionOp : public Operator {
 public:
  UnionOp(std::string name, int num_inputs, UnionOptions options = {})
      : Operator(std::move(name), num_inputs, 1),
        union_options_(options),
        combiner_(num_inputs) {}

  Status InferSchemas() override {
    for (int i = 1; i < num_inputs(); ++i) {
      if (!input_schema(0)->Equals(*input_schema(i))) {
        return Status::SchemaMismatch(name() +
                                      ": union inputs must agree");
      }
    }
    SetOutputSchema(0, input_schema(0));
    return Status::OK();
  }

  Status ProcessTuple(int, const Tuple& tuple) override {
    if (guards_.Blocks(tuple)) {
      ++stats_.input_guard_drops;
      return Status::OK();
    }
    Emit(0, tuple);
    return Status::OK();
  }

  Status ProcessPunctuation(int port, const Punctuation& punct) override {
    ++stats_.puncts_in;
    EmitClaims(combiner_.Add(port, punct));
    return Status::OK();
  }

  Status ProcessEos(int port) override {
    EmitClaims(combiner_.Retire(port));
    return Operator::ProcessEos(port);
  }

  Status ProcessFeedback(int, const FeedbackPunctuation& fb) override {
    if (union_options_.feedback_policy == FeedbackPolicy::kIgnore ||
        fb.pattern().arity() != output_schema(0)->num_fields()) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    if (fb.intent() == FeedbackIntent::kAssumed &&
        PolicyAtLeast(union_options_.feedback_policy,
                      FeedbackPolicy::kExploit)) {
      guards_.Add(fb.pattern());
      for (int i = 0; i < num_inputs(); ++i) {
        stats_.work_avoided +=
            static_cast<uint64_t>(ctx()->PurgeInput(i, fb.pattern()));
      }
    }
    if (fb.intent() != FeedbackIntent::kAssumed) {
      for (int i = 0; i < num_inputs(); ++i) {
        ctx()->PrioritizeInput(i, fb.pattern());
      }
    }
    if (PolicyAtLeast(union_options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      for (int i = 0; i < num_inputs(); ++i) RelayFeedback(i, fb);
    }
    return Status::OK();
  }

  Status SnapshotState(SnapshotWriter* w) override {
    NSTREAM_RETURN_NOT_OK(Operator::SnapshotState(w));
    w->WriteGuardSet(guards_);
    combiner_.Write(w);
    return Status::OK();
  }

  Status RestoreState(SnapshotReader* r) override {
    NSTREAM_RETURN_NOT_OK(Operator::RestoreState(r));
    NSTREAM_RETURN_NOT_OK(r->ReadGuardSet(&guards_));
    return combiner_.Read(r);
  }

  const GuardSet& guards() const { return guards_; }

 protected:
  /// Emit combined claims, expiring the guards each covers.
  void EmitClaims(std::vector<Punctuation> claims) {
    for (Punctuation& claim : claims) {
      guards_.ExpireCovered(claim);
      EmitPunct(0, std::move(claim));
    }
  }

  UnionOptions union_options_;
  GuardSet guards_;
  PunctuationCombiner combiner_;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_UNION_OP_H_
