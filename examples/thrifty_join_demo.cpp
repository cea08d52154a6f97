// THRIFTY JOIN (§3.3, "Adaptive"): probe-vehicle data is sparse — many
// (segment, minute) windows contain no probe at all. When punctuation
// reveals such an empty window, the join tells the sensor branch to
// stop producing tuples for it: those tuples could never join.
// Also demonstrates IMPATIENT JOIN (§3.4): desired punctuation asking
// the other input to prioritize subsets the join can already use.

#include <cstdio>

#include "common/logging.h"
#include "exec/scheduler.h"
#include "ops/select.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/vector_source.h"
#include "workload/traffic.h"

using namespace nstream;

namespace {

void RunOnce(bool thrifty, bool impatient) {
  TrafficConfig sensor_config;
  sensor_config.num_segments = 6;
  sensor_config.detectors_per_segment = 5;
  sensor_config.duration_ms = 20 * 60'000;
  sensor_config.punct_every_ms = 60'000;
  // Sensors lag slightly so probe punctuation can beat sensor data to
  // the join (otherwise there is nothing left to suppress).
  sensor_config.ooo_jitter_ms = 90'000;

  ProbeConfig probe_config;
  probe_config.num_segments = 6;
  probe_config.num_vehicles = 12;
  probe_config.duration_ms = sensor_config.duration_ms;
  probe_config.coverage = 0.9;
  probe_config.outage_period_min = 7;  // fleet outage: minutes 0-2 of
  probe_config.outage_len_min = 3;     // every 7 -> empty windows

  QueryPlan plan;
  // Probe side is the LEFT / thrifty-probe input.
  auto* probes = plan.AddOp(std::make_unique<VectorSource>(
      "probes", ProbeSchema(), GenerateProbes(probe_config)));
  auto* sensors = plan.AddOp(std::make_unique<VectorSource>(
      "sensors", DetectorSchema(),
      GenerateTraffic(sensor_config)));

  // A pass-through select on the sensor branch stands in for the
  // sensor-side processing the feedback will save.
  auto* sensor_work = plan.AddOp(Select::FromPattern(
      "sensor-work", PunctPattern::AllWildcard(4)));

  JoinOptions jopt;
  jopt.left_keys = {kProbeSegment};     // probe.segment
  jopt.right_keys = {kDetSegment};      // detector.segment
  jopt.left_ts = kProbeTimestamp;
  jopt.right_ts = kDetTimestamp;
  jopt.window_join = true;
  jopt.window = {60'000, 60'000};
  jopt.thrifty = thrifty;
  jopt.thrifty_probe_input = 0;
  jopt.impatient = impatient;
  jopt.impatient_data_input = 0;
  auto* join = plan.AddOp(
      std::make_unique<SymmetricHashJoin>("vehicle-sensor-join", jopt));

  auto* sink = plan.AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false}));

  NSTREAM_CHECK(plan.Connect(*probes, 0, *join, 0).ok());
  NSTREAM_CHECK(plan.Connect(*sensors, *sensor_work).ok());
  NSTREAM_CHECK(plan.Connect(*sensor_work, 0, *join, 1).ok());
  NSTREAM_CHECK(plan.Connect(*join, *sink).ok());

  // Virtual time with paced sources: each branch delivers its tuples at
  // their arrival instants, so probe punctuation can overtake the
  // lagging sensor data.
  Status st = RunInVirtualTime(&plan);
  NSTREAM_CHECK(st.ok()) << st.ToString();

  std::printf("--- thrifty=%s impatient=%s ---\n",
              thrifty ? "on" : "off", impatient ? "on" : "off");
  std::printf(
      "  join results: %llu   sensor tuples that reached the join: "
      "%llu\n",
      static_cast<unsigned long long>(sink->consumed()),
      static_cast<unsigned long long>(join->stats().tuples_in));
  if (thrifty) {
    std::printf(
        "  empty probe windows detected -> %llu assumed feedbacks; "
        "%llu sensor tuples suppressed before the join (queue purge) "
        "and %llu at sensor-work's guard\n",
        static_cast<unsigned long long>(join->thrifty_feedbacks()),
        static_cast<unsigned long long>(join->stats().work_avoided),
        static_cast<unsigned long long>(
            sensor_work->stats().input_guard_drops));
  }
  if (impatient) {
    std::printf(
        "  desired punctuations sent to prioritize matching sensor "
        "data: %llu\n",
        static_cast<unsigned long long>(join->impatient_feedbacks()));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("THRIFTY / IMPATIENT JOIN (paper §3.3-§3.4)\n\n");
  RunOnce(false, false);
  RunOnce(true, false);
  RunOnce(true, true);
  std::printf(
      "Thrifty feedback suppresses sensor tuples for windows the "
      "probe stream has already punctuated as empty; the join result "
      "is unchanged because those tuples could never join.\n");
  return 0;
}
