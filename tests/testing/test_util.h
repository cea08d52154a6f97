// Shared test scaffolding: terse tuple builders and a linear-plan
// harness that wires source → ops… → sink and runs it under any
// executor.

#ifndef NSTREAM_TESTS_TESTING_TEST_UTIL_H_
#define NSTREAM_TESTS_TESTING_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/query_plan.h"
#include "exec/scheduler.h"
#include "exec/sync_executor.h"
#include "exec/threaded_executor.h"
#include "ops/sink.h"
#include "ops/vector_source.h"
#include "punct/pattern_parser.h"

namespace nstream {
namespace testing_util {

/// Parse-or-die pattern helper: P("[*,>=50]").
inline PunctPattern P(std::string_view text) {
  Result<PunctPattern> r = ParsePattern(text);
  if (!r.ok()) {
    ADD_FAILURE() << "bad pattern '" << text
                  << "': " << r.status().ToString();
    return PunctPattern();
  }
  return r.MoveValue();
}

/// Parse-or-die feedback helper: FB("~[*,>=50]").
inline FeedbackPunctuation FB(std::string_view text) {
  Result<FeedbackPunctuation> r = ParseFeedback(text);
  if (!r.ok()) {
    ADD_FAILURE() << "bad feedback '" << text
                  << "': " << r.status().ToString();
    return FeedbackPunctuation();
  }
  return r.MoveValue();
}

/// Timed tuples at 1ms spacing from a list of builders.
inline std::vector<TimedElement> AtMillis(std::vector<Tuple> tuples,
                                          TimeMs start = 0,
                                          TimeMs step = 1) {
  std::vector<TimedElement> out;
  TimeMs at = start;
  for (Tuple& t : tuples) {
    out.push_back(TimedElement::OfTuple(at, std::move(t)));
    at += step;
  }
  return out;
}

/// Linear source → ops… → sink plan.
class LinearPlan {
 public:
  LinearPlan(SchemaPtr schema, std::vector<TimedElement> elements) {
    source_ = plan_.AddOp(std::make_unique<VectorSource>(
        "source", std::move(schema), std::move(elements)));
    last_ = source_;
  }

  template <typename T>
  T* Add(std::unique_ptr<T> op) {
    T* raw = plan_.AddOp(std::move(op));
    Status st = plan_.Connect(*last_, *raw);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
    last_ = raw;
    return raw;
  }

  CollectorSink* Finish(CollectorSinkOptions options = {},
                        CollectorSink::FeedbackDriver driver = nullptr) {
    sink_ = plan_.AddOp(std::make_unique<CollectorSink>(
        "sink", options, std::move(driver)));
    Status st = plan_.Connect(*last_, *sink_);
    if (!st.ok()) ADD_FAILURE() << st.ToString();
    return sink_;
  }

  Status RunSync(SyncExecutorOptions options = {}) {
    SyncExecutor exec(options);
    return exec.Run(&plan_);
  }
  Status RunVirtual(SchedulerOptions options = {}) {
    return RunInVirtualTime(&plan_, options, &virtual_end_ms_);
  }
  Status RunThreaded(ThreadedExecutorOptions options = {}) {
    ThreadedExecutor exec(options);
    return exec.Run(&plan_);
  }
  Status RunPooled(PooledExecutorOptions options = {}) {
    PooledExecutor exec(options);
    return exec.Run(&plan_);
  }

  QueryPlan* plan() { return &plan_; }
  VectorSource* source() { return source_; }
  CollectorSink* sink() { return sink_; }
  TimeMs virtual_end_ms() const { return virtual_end_ms_; }

 private:
  QueryPlan plan_;
  VectorSource* source_ = nullptr;
  Operator* last_ = nullptr;
  CollectorSink* sink_ = nullptr;
  TimeMs virtual_end_ms_ = 0;
};

/// Values of one attribute across collected tuples, as int64.
inline std::vector<int64_t> Int64Column(
    const std::vector<CollectedTuple>& rows, int attr) {
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (const CollectedTuple& r : rows) {
    Result<int64_t> v = r.tuple.value(attr).AsInt64();
    out.push_back(v.ok() ? v.value() : INT64_MIN);
  }
  return out;
}

inline std::vector<Tuple> TuplesOf(
    const std::vector<CollectedTuple>& rows) {
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (const CollectedTuple& r : rows) out.push_back(r.tuple);
  return out;
}

}  // namespace testing_util
}  // namespace nstream

#endif  // NSTREAM_TESTS_TESTING_TEST_UTIL_H_
