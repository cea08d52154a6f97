// TimelinessTracker: the Experiment 1 measurement harness. Consumes a
// CollectorSink's (tuple, output time) records, splits them into
// series (clean vs imputed), and computes the paper's metric — the
// fraction of tuples that were timely (output no later than
// `tolerance` after the stream's progress point) vs dropped/late.

#ifndef NSTREAM_METRICS_TIMELINESS_H_
#define NSTREAM_METRICS_TIMELINESS_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "ops/sink.h"

namespace nstream {

/// One point of a Fig. 5/6-style output-pattern series.
struct SeriesPoint {
  int64_t tuple_id = 0;
  TimeMs app_ts = 0;   // application timestamp in the tuple
  TimeMs out_ms = 0;   // system time the sink saw it
  TimeMs lag_ms = 0;   // out_ms - arrival-aligned expectation
};

struct TimelinessReport {
  std::vector<SeriesPoint> clean;
  std::vector<SeriesPoint> imputed;
  uint64_t total_expected_imputed = 0;  // dirty tuples entering the plan
  uint64_t imputed_delivered = 0;
  uint64_t imputed_timely = 0;
  uint64_t clean_delivered = 0;

  /// Fraction of expected imputed tuples that never arrived or arrived
  /// beyond the tolerance — the paper's "% dropped" (97% without
  /// feedback, 29% with feedback).
  double imputed_dropped_or_late_fraction() const {
    if (total_expected_imputed == 0) return 0;
    return 1.0 - static_cast<double>(imputed_timely) /
                     static_cast<double>(total_expected_imputed);
  }

  std::string Summary() const;
};

struct TimelinessOptions {
  int ts_attr = 1;      // application timestamp position
  int flag_attr = 3;    // "imputed" flag position
  TimeMs tolerance_ms = 5'000;
  uint64_t total_expected_imputed = 0;
};

/// Build the report from a sink's collected output. A tuple is timely
/// when its output time is within `tolerance` of its application
/// timestamp (paced sources emit each tuple at its application
/// timestamp on the scheduler's clock, so lag = out_ms - app_ts).
TimelinessReport AnalyzeTimeliness(
    const std::vector<CollectedTuple>& collected,
    const TimelinessOptions& options);

/// Render a Fig. 5/6-style series as CSV ("series,tuple_id,out_s").
std::string SeriesCsv(const TimelinessReport& report);

}  // namespace nstream

#endif  // NSTREAM_METRICS_TIMELINESS_H_
