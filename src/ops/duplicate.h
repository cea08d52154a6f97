// Duplicate: copies its input to N identical outputs (the fan-out at
// the bottom of the Experiment 1 plan, Fig. 4a). Its feedback
// semantics are the paper's §4.1 example: because the outputs must be
// identical, an assumed-feedback opportunity can be exploited only
// when *every* consumer has asked for it — "exploiting an opportunity
// would either affect both outputs or none".

#ifndef NSTREAM_OPS_DUPLICATE_H_
#define NSTREAM_OPS_DUPLICATE_H_

#include <string>
#include <vector>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "exec/operator.h"

namespace nstream {

struct DuplicateOptions {
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
};

class Duplicate final : public Operator {
 public:
  Duplicate(std::string name, int num_outputs,
            DuplicateOptions options = {})
      : Operator(std::move(name), 1, num_outputs),
        options_(options),
        per_output_guards_(static_cast<size_t>(num_outputs)) {}

  bool outputs_are_copies() const override { return true; }

  Status ProcessTuple(int, const Tuple& tuple) override {
    // Drop only when every output's consumers have disclaimed it.
    if (BlockedByAll(tuple)) {
      ++stats_.input_guard_drops;
      return Status::OK();
    }
    for (int o = 0; o < num_outputs(); ++o) Emit(o, tuple);
    return Status::OK();
  }

  Status ProcessPunctuation(int, const Punctuation& punct) override {
    ++stats_.puncts_in;
    for (auto& g : per_output_guards_) g.ExpireCovered(punct);
    for (int o = 0; o < num_outputs(); ++o) EmitPunct(o, punct);
    return Status::OK();
  }

  Status ProcessFeedback(int out_port,
                         const FeedbackPunctuation& fb) override {
    if (options_.feedback_policy == FeedbackPolicy::kIgnore ||
        fb.pattern().arity() != output_schema(0)->num_fields()) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    if (fb.intent() != FeedbackIntent::kAssumed) {
      // Prioritization affects delivery order, not content, so it is
      // safe to honor from a single consumer.
      ctx()->PrioritizeInput(0, fb.pattern());
      if (PolicyAtLeast(options_.feedback_policy,
                        FeedbackPolicy::kExploitAndPropagate)) {
        RelayFeedback(0, fb);
      }
      return Status::OK();
    }
    per_output_guards_[static_cast<size_t>(out_port)].Add(fb.pattern());
    // The subset is dead only if every other output already disclaims
    // it; only then may we drop tuples and tell upstream.
    bool unanimous = true;
    for (int o = 0; o < num_outputs(); ++o) {
      if (o == out_port) continue;
      bool covered = false;
      for (const PunctPattern& g :
           per_output_guards_[static_cast<size_t>(o)].patterns()) {
        if (g.Subsumes(fb.pattern())) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        unanimous = false;
        break;
      }
    }
    if (unanimous) {
      if (PolicyAtLeast(options_.feedback_policy,
                        FeedbackPolicy::kExploit)) {
        stats_.work_avoided +=
            static_cast<uint64_t>(ctx()->PurgeInput(0, fb.pattern()));
      }
      if (PolicyAtLeast(options_.feedback_policy,
                        FeedbackPolicy::kExploitAndPropagate)) {
        RelayFeedback(0, fb);
      }
    } else {
      ++stats_.feedback_ignored;  // held until the other side agrees
    }
    return Status::OK();
  }

  const GuardSet& output_guards(int o) const {
    return per_output_guards_[static_cast<size_t>(o)];
  }

 private:
  bool BlockedByAll(const Tuple& t) const {
    for (const auto& g : per_output_guards_) {
      if (!g.Blocks(t)) return false;
    }
    return !per_output_guards_.empty();
  }

  DuplicateOptions options_;
  std::vector<GuardSet> per_output_guards_;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_DUPLICATE_H_
