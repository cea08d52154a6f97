// Select (σ): stateless filter. Its feedback characterization is the
// simplest in the paper (§4.3): "assumed punctuation can simply be
// added to its select condition" — implemented as an input GuardSet —
// and, being an identity map from output to input schema, any feedback
// can be safely relayed upstream.

#ifndef NSTREAM_OPS_SELECT_H_
#define NSTREAM_OPS_SELECT_H_

#include <functional>
#include <string>
#include <utility>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "exec/operator.h"

namespace nstream {

struct SelectOptions {
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
};

class Select final : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  Select(std::string name, Predicate predicate, SelectOptions options = {})
      : Operator(std::move(name), 1, 1),
        predicate_(std::move(predicate)),
        options_(options) {}

  /// Select whose condition is a punctuation pattern (tuples matching
  /// `pattern` pass).
  static std::unique_ptr<Select> FromPattern(std::string name,
                                             PunctPattern pattern,
                                             SelectOptions options = {}) {
    return std::make_unique<Select>(
        std::move(name),
        [pattern = std::move(pattern)](const Tuple& t) {
          return pattern.Matches(t);
        },
        options);
  }

  Status ProcessTuple(int, const Tuple& tuple) override {
    if (guards_.Blocks(tuple)) {
      ++stats_.input_guard_drops;
      return Status::OK();
    }
    if (predicate_(tuple)) Emit(0, tuple);
    return Status::OK();
  }

  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    // Stateless filter: filter IN PLACE with no per-tuple virtual
    // dispatch and forward the page itself, so the page's arena (which
    // owns every surviving tuple's payload) makes the hop untouched —
    // zero copies, zero allocations. The compaction + mixed-page
    // handling lives in Operator::FilterPageInPlace (shared with Pace).
    return FilterPageInPlace(port, std::move(page), tick,
                             [this](const Tuple& tuple) {
                               if (guards_.Blocks(tuple)) {
                                 ++stats_.input_guard_drops;
                                 return false;
                               }
                               return predicate_(tuple);
                             });
  }

  Status ProcessPunctuation(int port, const Punctuation& punct) override {
    // Embedded punctuation both expires dead guards (§4.4) and passes
    // through (a filter only removes tuples, so completeness claims
    // survive).
    guards_.ExpireCovered(punct);
    return Operator::ProcessPunctuation(port, punct);
  }

  Status ProcessFeedback(int, const FeedbackPunctuation& fb) override {
    if (options_.feedback_policy == FeedbackPolicy::kIgnore) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    if (fb.pattern().arity() != output_schema(0)->num_fields()) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    switch (fb.intent()) {
      case FeedbackIntent::kAssumed:
        if (PolicyAtLeast(options_.feedback_policy,
                          FeedbackPolicy::kExploit)) {
          guards_.Add(fb.pattern());
          stats_.work_avoided +=
              static_cast<uint64_t>(ctx()->PurgeInput(0, fb.pattern()));
        }
        break;
      case FeedbackIntent::kDesired:
      case FeedbackIntent::kDemanded:
        ctx()->PrioritizeInput(0, fb.pattern());
        break;
    }
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      RelayFeedback(0, fb);  // identity schema: safe as-is (§4.2)
    }
    return Status::OK();
  }

  const GuardSet& guards() const { return guards_; }

 private:
  Predicate predicate_;
  SelectOptions options_;
  GuardSet guards_;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_SELECT_H_
