// CostModel: processing costs for the discrete-event SimExecutor. The
// paper's Experiment 1 hinges on a cost asymmetry — IMPUTE issues a
// database query per dirty tuple while clean tuples are nearly free —
// so costs are experiment configuration, not operator code. Operators
// may additionally charge explicit cost via ExecContext::ChargeMs (e.g.
// IMPUTE's archival lookup).

#ifndef NSTREAM_EXEC_COST_MODEL_H_
#define NSTREAM_EXEC_COST_MODEL_H_

namespace nstream {

class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(double default_tuple_cost_ms)
      : default_tuple_cost_ms_(default_tuple_cost_ms) {}

  /// Base per-tuple processing cost, the same for every operator.
  double TupleCostMs() const { return default_tuple_cost_ms_; }

  /// Punctuation / control processing cost (cheap metadata).
  static constexpr double PunctCostMs() { return 0.001; }

  CostModel& SetDefaultTupleCostMs(double ms) {
    default_tuple_cost_ms_ = ms;
    return *this;
  }

 private:
  double default_tuple_cost_ms_ = 0.01;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_COST_MODEL_H_
