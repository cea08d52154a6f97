// Sinks. CollectorSink records result tuples with their output times
// (the raw data behind Figs. 5/6), optionally performs per-tuple
// "client work" (the speed-map renderer of Experiment 2), and can act
// as an application-side feedback *producer*: a driver callback
// inspects each result and may issue feedback punctuation upstream —
// the event-driven source of §3.3 (the viewer zooming the speed map).

#ifndef NSTREAM_OPS_SINK_H_
#define NSTREAM_OPS_SINK_H_

#include <functional>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace nstream {

struct CollectedTuple {
  Tuple tuple;
  TimeMs out_ms = 0;  // system time at which the sink saw it
};

struct CollectorSinkOptions {
  // Keep tuples in memory (disable for the 1M-tuple benches).
  bool record_tuples = true;
  // Virtual cost charged per consumed tuple (under a VirtualClock).
  double charge_ms_per_tuple = 0.0;
  // Real CPU work per consumed tuple (wall-clock benches): iterations
  // of a checksum loop standing in for rendering a map segment.
  int work_iters_per_tuple = 0;
};

class CollectorSink final : public Operator {
 public:
  /// Driver: called for every tuple; returned feedback (if any) is sent
  /// upstream, modelling an interactive application.
  using FeedbackDriver = std::function<std::vector<FeedbackPunctuation>(
      const Tuple&, TimeMs now)>;

  explicit CollectorSink(std::string name,
                         CollectorSinkOptions options = {},
                         FeedbackDriver driver = nullptr)
      : Operator(std::move(name), 1, 0),
        options_(options),
        driver_(std::move(driver)) {}

  Status ProcessTuple(int, const Tuple& tuple) override {
    if (options_.charge_ms_per_tuple > 0) {
      ctx()->ChargeMs(options_.charge_ms_per_tuple);
    }
    if (options_.work_iters_per_tuple > 0) {
      // Deterministic busy work the optimizer cannot elide.
      for (int i = 0; i < options_.work_iters_per_tuple; ++i) {
        checksum_ = checksum_ * 6364136223846793005ULL + 1442695040888963407ULL;
      }
    }
    ++consumed_;
    if (options_.record_tuples) {
      collected_.push_back({tuple, ctx()->NowMs()});
    }
    if (driver_) {
      for (FeedbackPunctuation& fb : driver_(tuple, ctx()->NowMs())) {
        SendFeedback(0, std::move(fb));
      }
    }
    return Status::OK();
  }

  /// Tight batch walk. The sink terminates every pipeline, so the
  /// per-element virtual dispatch of the default page walk shows up
  /// directly in end-to-end numbers; walking on the concrete final
  /// type devirtualizes and inlines the per-element calls.
  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    return WalkPageElements(this, &stats_, port, std::move(page), tick);
  }

  Status ProcessPunctuation(int, const Punctuation&) override {
    ++stats_.puncts_in;
    return Status::OK();
  }

  uint64_t consumed() const { return consumed_; }
  const std::vector<CollectedTuple>& collected() const {
    return collected_;
  }
  uint64_t checksum() const { return checksum_; }

 private:
  CollectorSinkOptions options_;
  FeedbackDriver driver_;
  std::vector<CollectedTuple> collected_;
  uint64_t consumed_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_SINK_H_
