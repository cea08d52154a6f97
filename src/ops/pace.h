// PACE: the paper's policy-enforcing union (Example 3, Experiment 1).
// Unites N same-schema inputs while bounding the divergence between
// them: it tracks the high-watermark of the timestamp attribute across
// all inputs, and a tuple arriving more than `tolerance_ms` behind that
// watermark is "too late" — dropped (mode kDrop*) or merely counted
// (mode kUnionOnly, the no-PACE baseline of Fig. 5).
//
// As a feedback *producer*, PACE turns the detected violation into
// assumed punctuation ¬[...,≤ hwm−tolerance,...] sent upstream so that
// antecedent operators (IMPUTE) stop wasting effort on tuples that
// would be ignored anyway (Fig. 6).

#ifndef NSTREAM_OPS_PACE_H_
#define NSTREAM_OPS_PACE_H_

#include <string>
#include <vector>

#include "ops/union_op.h"

namespace nstream {

enum class PaceMode : uint8_t {
  kUnionOnly = 0,       // plain UNION: pass everything, count lateness
  kDrop,                // enforce the bound by dropping late tuples
  kDropAndFeedback,     // also produce assumed feedback upstream
};

struct PaceOptions {
  // Timestamp attribute (application time) the policy is stated over.
  int ts_attr = 0;
  // Maximum tolerated divergence (the WITH PACE ... <k> MINUTE bound).
  TimeMs tolerance_ms = 60'000;
  PaceMode mode = PaceMode::kDropAndFeedback;
  // Re-issue feedback only after the watermark advanced this far past
  // the last issued bound (avoids a feedback message per tuple).
  TimeMs feedback_min_advance_ms = 1'000;
  // Inputs to send feedback to; empty = all inputs.
  std::vector<int> feedback_inputs;
};

/// Per-input accounting for the Experiment 1 metrics.
struct PaceInputStats {
  uint64_t tuples = 0;
  uint64_t timely = 0;
  uint64_t late = 0;     // beyond tolerance (passed in kUnionOnly mode)
  uint64_t dropped = 0;  // late tuples removed (kDrop / kDropAndFeedback)
};

class Pace final : public UnionOp {
 public:
  Pace(std::string name, int num_inputs, PaceOptions options,
       UnionOptions union_options = {})
      : UnionOp(std::move(name), num_inputs, union_options),
        options_(options),
        per_input_(static_cast<size_t>(num_inputs)) {}

  Status ProcessTuple(int port, const Tuple& tuple) override {
    if (Admit(port, tuple)) Emit(0, tuple);
    return Status::OK();
  }

  /// Page-at-a-time path: the run of leading tuples takes the policy
  /// check in a tight loop (guards are fixed within a run — only
  /// punctuation expires them, and punctuation bounds the run; the
  /// watermark is monotone and advances inline exactly as the
  /// element walk would), survivors compact IN PLACE, and the page
  /// itself — arena and all — is forwarded, the same zero-copy hop
  /// as Select's paged filter. In kDrop* modes this turns the
  /// enforcement loop into one pass over a warm page instead of one
  /// Emit (queue hop) per timely tuple.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    return FilterPageInPlace(port, std::move(page), tick,
                             [this, port](const Tuple& tuple) {
                               return Admit(port, tuple);
                             });
  }

  const PaceInputStats& input_stats(int port) const {
    return per_input_[static_cast<size_t>(port)];
  }
  TimeMs high_watermark() const { return hwm_; }
  uint64_t feedback_rounds() const { return feedback_rounds_; }

 private:
  /// The PACE policy decision for one tuple: account it, advance the
  /// high watermark, classify timely/late, and fire feedback on
  /// enforced drops. Returns whether the tuple flows downstream.
  /// Shared verbatim by the element and paged paths.
  bool Admit(int port, const Tuple& tuple) {
    if (guards_.Blocks(tuple)) {
      ++stats_.input_guard_drops;
      return false;
    }
    auto& acct = per_input_[static_cast<size_t>(port)];
    ++acct.tuples;

    Result<int64_t> ts = tuple.value(options_.ts_attr).AsInt64();
    if (!ts.ok()) return true;  // non-temporal tuple: pass unjudged
    if (ts.value() > hwm_) hwm_ = ts.value();

    const bool too_late = hwm_ - ts.value() > options_.tolerance_ms;
    if (!too_late) {
      ++acct.timely;
      return true;
    }
    ++acct.late;
    if (options_.mode == PaceMode::kUnionOnly) {
      return true;  // baseline: late tuples still flow (Fig. 5)
    }
    ++acct.dropped;
    if (options_.mode == PaceMode::kDropAndFeedback) {
      MaybeSendFeedback();
    }
    return false;
  }

  void MaybeSendFeedback() {
    // The paper's PACE punctuates at the current high watermark
    // itself: once divergence exceeds tolerance, *everything* older
    // than the watermark is declared no longer needed, so the lagging
    // branch catches all the way up instead of hovering at the
    // tolerance edge.
    const TimeMs bound = hwm_;
    if (bound <= last_feedback_bound_ + options_.feedback_min_advance_ms) {
      return;
    }
    last_feedback_bound_ = bound;
    ++feedback_rounds_;
    // ¬[*,...,≤bound,...,*]: "tuples at or before `bound` are being
    // ignored; their production should be avoided" (Example 3).
    PunctPattern p =
        PunctPattern::AllWildcard(output_schema(0)->num_fields());
    p = p.With(options_.ts_attr,
               AttrPattern::Le(Value::Timestamp(bound)));
    const std::vector<int>& targets = options_.feedback_inputs;
    if (targets.empty()) {
      for (int i = 0; i < num_inputs(); ++i) {
        SendFeedback(i, FeedbackPunctuation::Assumed(p));
      }
    } else {
      for (int i : targets) {
        SendFeedback(i, FeedbackPunctuation::Assumed(p));
      }
    }
  }

  PaceOptions options_;
  std::vector<PaceInputStats> per_input_;
  TimeMs hwm_ = INT64_MIN / 2;
  TimeMs last_feedback_bound_ = INT64_MIN / 2;
  uint64_t feedback_rounds_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_PACE_H_
