// Impute: replaces missing values with estimates via an expensive
// per-tuple archival lookup (Example 3 / Experiment 1: one database
// query per dirty tuple). The estimator is injected so the operator
// stays decoupled from the archive implementation; `cost_ms` charges
// the lookup's latency to the virtual clock under the pooled
// scheduler's manual mode; wall-clock executors ignore it.
//
// As a feedback *exploiter*, IMPUTE reacts to assumed punctuation by
// (1) purging matching tuples buffered on its input — work not yet
// done that never needs doing — and (2) guarding its input so late
// arrivals are skipped. Both are counted as work_avoided. Desired
// punctuation reorders its backlog instead.

#ifndef NSTREAM_OPS_IMPUTE_H_
#define NSTREAM_OPS_IMPUTE_H_

#include <functional>
#include <string>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "exec/operator.h"

namespace nstream {

struct ImputeOptions {
  // Attribute whose NULLs are replaced.
  int value_attr = 0;
  // Attribute set to 1 when a tuple was imputed (-1 = none). Lets the
  // experiment harness separate clean from imputed tuples (Fig. 5/6).
  int flag_attr = -1;
  // Cost charged per imputation (the archival DB query).
  double cost_ms = 25.0;
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
};

class Impute final : public Operator {
 public:
  /// Estimator: produce a replacement value for the dirty tuple.
  using Estimator = std::function<double(const Tuple&)>;

  Impute(std::string name, Estimator estimator, ImputeOptions options)
      : Operator(std::move(name), 1, 1),
        estimator_(std::move(estimator)),
        options_(options) {}

  Status ProcessTuple(int, const Tuple& tuple) override {
    if (guards_.Blocks(tuple)) {
      ++stats_.input_guard_drops;
      ++stats_.work_avoided;  // an archival query we did not issue
      return Status::OK();
    }
    Tuple out = tuple;
    if (out.value(options_.value_attr).is_null()) {
      ctx()->ChargeMs(options_.cost_ms);  // the archival lookup
      ++imputations_;
      out.mutable_value(options_.value_attr) =
          Value::Double(estimator_(tuple));
      if (options_.flag_attr >= 0) {
        out.mutable_value(options_.flag_attr) = Value::Int64(1);
      }
    }
    Emit(0, std::move(out));
    return Status::OK();
  }

  Status ProcessPunctuation(int port, const Punctuation& punct) override {
    guards_.ExpireCovered(punct);
    return Operator::ProcessPunctuation(port, punct);
  }

  Status ProcessFeedback(int, const FeedbackPunctuation& fb) override {
    if (options_.feedback_policy == FeedbackPolicy::kIgnore ||
        fb.pattern().arity() != output_schema(0)->num_fields()) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    switch (fb.intent()) {
      case FeedbackIntent::kAssumed:
        if (PolicyAtLeast(options_.feedback_policy,
                          FeedbackPolicy::kExploit)) {
          guards_.Add(fb.pattern());
          int purged = ctx()->PurgeInput(0, fb.pattern());
          stats_.state_purged += static_cast<uint64_t>(purged);
          stats_.work_avoided += static_cast<uint64_t>(purged);
        }
        break;
      case FeedbackIntent::kDesired:
      case FeedbackIntent::kDemanded:
        ctx()->PrioritizeInput(0, fb.pattern());
        break;
    }
    // The flag attribute is computed here, but identity holds for all
    // others; patterns constraining only carried attributes relay
    // safely. (A constraint on flag_attr would not, so skip those.)
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      bool touches_flag = false;
      if (options_.flag_attr >= 0) {
        for (int i : fb.pattern().ConstrainedIndices()) {
          if (i == options_.flag_attr) touches_flag = true;
        }
      }
      if (!touches_flag) RelayFeedback(0, fb);
    }
    return Status::OK();
  }

  uint64_t imputations() const { return imputations_; }
  const GuardSet& guards() const { return guards_; }

 private:
  Estimator estimator_;
  ImputeOptions options_;
  GuardSet guards_;
  uint64_t imputations_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_IMPUTE_H_
