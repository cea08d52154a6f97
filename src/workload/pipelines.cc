#include "workload/pipelines.h"

#include <deque>
#include <utility>

#include "common/logging.h"
#include "ops/callback_source.h"
#include "ops/vector_source.h"

namespace nstream {

namespace {

/// Pass-through that holds each feedback `delay_ms` of system time
/// before relaying it upstream: a slow control hop. Data, punctuation
/// and EOS pass untouched; held feedback goes out with the first page
/// at or after its due instant.
class FeedbackDelay final : public Operator {
 public:
  FeedbackDelay(std::string name, TimeMs delay_ms)
      : Operator(std::move(name), 1, 1), delay_ms_(delay_ms) {}

  Status ProcessTuple(int, const Tuple& tuple) override {
    RelayDue();
    Emit(0, tuple);
    return Status::OK();
  }

  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    RelayDue();
    return FilterPageInPlace(port, std::move(page), tick,
                             [](const Tuple&) { return true; });
  }

  Status ProcessFeedback(int, const FeedbackPunctuation& fb) override {
    held_.emplace_back(ctx()->NowMs() + delay_ms_, fb);
    return Status::OK();
  }

 private:
  void RelayDue() {
    const TimeMs now = ctx()->NowMs();
    while (!held_.empty() && held_.front().first <= now) {
      RelayFeedback(0, std::move(held_.front().second));
      held_.pop_front();
    }
  }

  TimeMs delay_ms_;
  std::deque<std::pair<TimeMs, FeedbackPunctuation>> held_;
};

}  // namespace

ImputationPlan BuildImputationPlan(const ImputationPlanConfig& config) {
  ImputationPlan out;
  out.plan = std::make_unique<QueryPlan>();
  QueryPlan& plan = *out.plan;

  std::vector<TimedElement> stream =
      GenerateImputationStream(config.stream);
  for (const TimedElement& te : stream) {
    if (te.element.is_tuple() &&
        te.element.tuple().value(kImpSpeed).is_null()) {
      ++out.expected_dirty;
    }
  }

  auto* source = plan.AddOp(std::make_unique<VectorSource>(
      "sensor-stream", ImputationSchema(), std::move(stream)));

  out.duplicate =
      plan.AddOp(std::make_unique<Duplicate>("duplicate", 2));

  // σC: clean tuples (speed present); σ¬C: dirty tuples (speed NULL).
  PunctPattern clean_p = PunctPattern::AllWildcard(4).With(
      kImpSpeed, AttrPattern::NotNull());
  PunctPattern dirty_p = PunctPattern::AllWildcard(4).With(
      kImpSpeed, AttrPattern::IsNull());
  out.clean_filter =
      plan.AddOp(Select::FromPattern("sigma-clean", clean_p));
  out.dirty_filter =
      plan.AddOp(Select::FromPattern("sigma-dirty", dirty_p));

  out.archive_keepalive = std::make_shared<ArchiveStore>(ArchiveConfig{
      .num_detectors = config.stream.num_detectors});
  out.archive = out.archive_keepalive.get();
  ArchiveStore* archive = out.archive;
  ImputeOptions impute_options;
  impute_options.value_attr = kImpSpeed;
  impute_options.flag_attr = kImpFlag;
  impute_options.cost_ms = config.impute_cost_ms;
  out.impute = plan.AddOp(std::make_unique<Impute>(
      "impute",
      [archive](const Tuple& t) {
        Result<int64_t> det = t.value(kImpDetector).AsInt64();
        Result<int64_t> ts = t.value(kImpTimestamp).AsInt64();
        return archive->Estimate(det.ok() ? det.value() : 0,
                                 ts.ok() ? ts.value() : 0);
      },
      impute_options));

  PaceOptions pace_options;
  pace_options.ts_attr = kImpTimestamp;
  pace_options.tolerance_ms = config.tolerance_ms;
  pace_options.feedback_min_advance_ms = config.feedback_min_advance_ms;
  pace_options.mode = config.feedback_enabled
                          ? PaceMode::kDropAndFeedback
                          : PaceMode::kUnionOnly;
  if (config.feedback_to_impute_only) {
    pace_options.feedback_inputs = {1};
  }
  out.pace =
      plan.AddOp(std::make_unique<Pace>("pace", 2, pace_options));

  out.sink = plan.AddOp(std::make_unique<CollectorSink>("sink"));

  NSTREAM_CHECK(plan.Connect(*source, *out.duplicate).ok());
  NSTREAM_CHECK(
      plan.Connect(*out.duplicate, 0, *out.clean_filter, 0).ok());
  NSTREAM_CHECK(
      plan.Connect(*out.duplicate, 1, *out.dirty_filter, 0).ok());
  NSTREAM_CHECK(plan.Connect(*out.dirty_filter, *out.impute).ok());
  NSTREAM_CHECK(plan.Connect(*out.clean_filter, 0, *out.pace, 0).ok());
  Operator* imputed = out.impute;
  if (config.feedback_delay_ms > 0) {
    Operator* hop = plan.AddOp(std::make_unique<FeedbackDelay>(
        "feedback-delay", config.feedback_delay_ms));
    NSTREAM_CHECK(plan.Connect(*out.impute, *hop).ok());
    imputed = hop;
  }
  NSTREAM_CHECK(plan.Connect(*imputed, 0, *out.pace, 1).ok());
  NSTREAM_CHECK(plan.Connect(*out.pace, *out.sink).ok());
  NSTREAM_CHECK(plan.Finalize().ok());
  return out;
}

SpeedmapPlan BuildSpeedmapPlan(const SpeedmapPlanConfig& config) {
  SpeedmapPlan out;
  out.plan = std::make_unique<QueryPlan>();
  QueryPlan& plan = *out.plan;

  auto gen = std::make_shared<TrafficGen>(config.traffic);
  auto* source = plan.AddOp(std::make_unique<CallbackSource>(
      "traffic", DetectorSchema(),
      [gen]() { return gen->Next(); }));

  // σQ: keep plausible readings only (drops NULLs and garbage).
  PunctPattern quality = PunctPattern::AllWildcard(4).With(
      kDetSpeed, AttrPattern::Ge(Value::Double(0.0)));
  SelectOptions sel_options;
  // σQ exploits whatever reaches it; under F0-F2 nothing does.
  sel_options.feedback_policy = FeedbackPolicy::kExploitAndPropagate;
  out.quality_filter = plan.AddOp(
      Select::FromPattern("sigma-quality", quality, sel_options));

  WindowAggregateOptions agg;
  agg.ts_attr = kDetTimestamp;
  agg.group_attrs = {kDetSegment};
  agg.agg_attr = kDetSpeed;
  agg.kind = AggKind::kAvg;
  agg.window = config.window;
  agg.feedback_policy = config.scheme;
  agg.work_iters_per_update = config.agg_work_iters;
  out.average = plan.AddOp(
      std::make_unique<WindowAggregate>("average", agg));

  ViewerConfig viewer;
  viewer.num_segments = config.traffic.num_segments;
  viewer.switch_every_ms = config.switch_every_ms;
  CollectorSinkOptions sink_options;
  sink_options.record_tuples = config.record_sink_tuples;
  sink_options.work_iters_per_tuple = config.sink_work_iters;
  out.sink = plan.AddOp(std::make_unique<CollectorSink>(
      "viewer-sink", sink_options,
      config.scheme == FeedbackPolicy::kIgnore
          ? CollectorSink::FeedbackDriver(nullptr)
          : MakeViewerDriver(viewer)));

  NSTREAM_CHECK(plan.Connect(*source, *out.quality_filter).ok());
  NSTREAM_CHECK(
      plan.Connect(*out.quality_filter, *out.average).ok());
  NSTREAM_CHECK(plan.Connect(*out.average, *out.sink).ok());
  NSTREAM_CHECK(plan.Finalize().ok());
  return out;
}

}  // namespace nstream
