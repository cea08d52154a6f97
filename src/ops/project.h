// Project (π): positional projection. Demonstrates schema-mapped
// feedback relaying: feedback over the output schema is rewritten into
// input-schema terms via the projection's SchemaMap before being
// exploited or propagated (§4.2).

#ifndef NSTREAM_OPS_PROJECT_H_
#define NSTREAM_OPS_PROJECT_H_

#include <string>
#include <vector>

#include "core/feedback_policy.h"
#include "core/guards.h"
#include "core/propagation.h"
#include "core/schema_map.h"
#include "exec/operator.h"

namespace nstream {

struct ProjectOptions {
  FeedbackPolicy feedback_policy = FeedbackPolicy::kExploitAndPropagate;
};

class Project final : public Operator {
 public:
  /// `keep` lists input attribute positions, in output order.
  Project(std::string name, std::vector<int> keep,
          ProjectOptions options = {})
      : Operator(std::move(name), 1, 1),
        keep_(std::move(keep)),
        options_(options) {}

  Status InferSchemas() override {
    NSTREAM_ASSIGN_OR_RETURN(SchemaPtr out,
                             input_schema(0)->Project(keep_));
    SetOutputSchema(0, std::move(out));
    map_ = SchemaMap::Projection(keep_);
    return Status::OK();
  }

  Status ProcessTuple(int, const Tuple& tuple) override {
    if (input_guards_.Blocks(tuple)) {
      ++stats_.input_guard_drops;
      return Status::OK();
    }
    // Build the projection in the open output page's arena when the
    // executor exposes one (null on foreign contexts — the owned
    // fallback): per-tuple emission then still allocates nothing on
    // the heap.
    Tuple out = Projected(tuple, ctx()->OpenPageArena(0));
    Emit(0, std::move(out));
    return Status::OK();
  }

  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    // Stateless projection: batch loop, one virtual call per page.
    // Columnar input: the guards drop rows by selection vector, and
    // projection is a column-pointer remap — O(output arity), zero
    // per-row work — so the page forwards as is, arena and all.
    if (page.is_columnar()) {
      ColumnarBlock* b = page.columnar();
      const size_t n = page.size();
      if (tick) *tick += static_cast<TimeMs>(n);
      stats_.tuples_in += n;
      if (!input_guards_.empty()) {
        b->KeepIf([&](uint32_t r) {
          if (!input_guards_.Blocks(*b, r)) return true;
          ++stats_.input_guard_drops;
          return false;
        });
      }
      b->ProjectColumns(keep_);
      if (!page.empty()) EmitPage(0, std::move(page));
      return Status::OK();
    }
    // Row input (a source's pages): results stage COLUMN-WISE (per
    // attribute, flat slot stores into contiguous column arrays — no
    // per-tuple span setup, no StreamElement variant). The staged page
    // flushes before any punctuation/EOS so results never overtake
    // progress claims.
    const uint32_t ncols = static_cast<uint32_t>(keep_.size());
    const uint32_t cap = static_cast<uint32_t>(page.size());
    Page out;
    auto flush_out = [&]() {
      if (!out.empty()) ctx()->EmitPage(0, std::move(out));
      out = Page();
    };
    for (StreamElement& e : page.mutable_elements()) {
      if (tick) ++*tick;
      if (e.is_tuple()) {
        ++stats_.tuples_in;
        const Tuple& tuple = e.tuple();
        if (input_guards_.Blocks(tuple)) {
          ++stats_.input_guard_drops;
          continue;
        }
        ColumnarBlock* blk = out.is_columnar()
                                 ? out.columnar()
                                 : out.BeginColumnar(ncols, cap);
        const uint32_t r = blk->AddRow(tuple.id(), tuple.arrival_ms());
        for (uint32_t c = 0; c < ncols; ++c) {
          blk->Set(c, r, tuple.value(keep_[c]));
        }
        ++stats_.tuples_out;
      } else {
        flush_out();
        if (e.is_punct()) {
          NSTREAM_RETURN_NOT_OK(ProcessPunctuation(port, e.punct()));
        } else {
          NSTREAM_RETURN_NOT_OK(ProcessEos(port));
        }
      }
    }
    flush_out();
    return Status::OK();
  }

  Status ProcessPunctuation(int, const Punctuation& punct) override {
    ++stats_.puncts_in;
    input_guards_.ExpireCovered(punct);
    // A punctuation survives projection only if the dropped attributes
    // were unconstrained; otherwise the completeness claim would
    // silently widen (e.g. [a<=5, b=3] -> [a<=5] is *wrong*).
    for (int idx : punct.pattern().ConstrainedIndices()) {
      bool kept = false;
      for (int k : keep_) {
        if (k == idx) {
          kept = true;
          break;
        }
      }
      if (!kept) return Status::OK();  // drop the punctuation
    }
    Result<PunctPattern> projected = punct.pattern().Project(keep_);
    if (projected.ok()) {
      EmitPunct(0, Punctuation(projected.MoveValue()));
    }
    return Status::OK();
  }

  Status ProcessFeedback(int, const FeedbackPunctuation& fb) override {
    if (options_.feedback_policy == FeedbackPolicy::kIgnore ||
        fb.pattern().arity() != output_schema(0)->num_fields()) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    // Rewrite the output-schema pattern into input-schema terms. For a
    // projection every output attribute is carried, so this always
    // succeeds (Definition 2 trivially holds).
    Result<PunctPattern> mapped = DeriveForInput(
        fb.pattern(), map_, 0, input_schema(0)->num_fields());
    if (!mapped.ok()) {
      ++stats_.feedback_ignored;
      return Status::OK();
    }
    switch (fb.intent()) {
      case FeedbackIntent::kAssumed:
        if (PolicyAtLeast(options_.feedback_policy,
                          FeedbackPolicy::kExploit)) {
          input_guards_.Add(mapped.value());
          stats_.work_avoided +=
              static_cast<uint64_t>(ctx()->PurgeInput(0, mapped.value()));
        }
        break;
      case FeedbackIntent::kDesired:
      case FeedbackIntent::kDemanded:
        ctx()->PrioritizeInput(0, mapped.value());
        break;
    }
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      FeedbackPunctuation up(fb.intent(), mapped.MoveValue());
      up.set_origin_op(fb.origin_op());
      up.set_hop_count(fb.hop_count());
      RelayFeedback(0, std::move(up));
    }
    return Status::OK();
  }

  const GuardSet& input_guards() const { return input_guards_; }

 private:
  Tuple Projected(const Tuple& tuple, TupleArena* arena) const {
    Tuple out(arena, keep_.size());
    for (int i : keep_) out.Append(tuple.value(i));
    out.set_id(tuple.id());
    out.set_arrival_ms(tuple.arrival_ms());
    return out;
  }

  std::vector<int> keep_;
  ProjectOptions options_;
  SchemaMap map_{1, 0};
  GuardSet input_guards_;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_PROJECT_H_
