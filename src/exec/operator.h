// Operator: the unit of query processing. NiagaraST runs each operator
// as a thread connected by inter-operator queues; here operators are
// passive event handlers (ProcessTuple / ProcessPunctuation /
// ProcessControl / ...) and the executor owns scheduling, so the same
// operator code runs under all three executors.
//
// Feedback roles (§3.5): an operator may be a feedback *producer*
// (calls EmitFeedback), an *exploiter* (overrides ProcessFeedback to
// guard/purge/prioritize), and/or a *relayer* (maps received feedback
// to its input schema(s) and forwards it). The default ProcessFeedback
// ignores feedback — a feedback-unaware operator, exactly the paper's
// fallback behaviour.

#ifndef NSTREAM_EXEC_OPERATOR_H_
#define NSTREAM_EXEC_OPERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "punct/feedback.h"
#include "stream/element.h"
#include "stream/page.h"
#include "types/schema.h"

namespace nstream {

class SnapshotReader;
class SnapshotWriter;

/// Per-operator counters; the currency of the experimental harness.
struct OperatorStats {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t puncts_in = 0;
  uint64_t puncts_out = 0;
  uint64_t feedback_received = 0;
  uint64_t feedback_sent = 0;       // originated here
  uint64_t feedback_propagated = 0; // relayed upstream
  uint64_t feedback_ignored = 0;    // received but not exploitable
  uint64_t input_guard_drops = 0;   // tuples dropped by an input guard
  uint64_t output_guard_drops = 0;  // results suppressed by output guard
  uint64_t state_purged = 0;        // state entries removed via feedback
  uint64_t work_avoided = 0;        // expensive units skipped (IMPUTE etc.)
};

class Operator {
 public:
  Operator(std::string name, int num_inputs, int num_outputs);
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  // ---- Identity & shape ----
  int64_t id() const { return id_; }
  void set_id(int64_t id) { id_ = id; }
  const std::string& name() const { return name_; }
  int num_inputs() const { return num_inputs_; }
  int num_outputs() const { return num_outputs_; }
  bool is_source() const { return num_inputs_ == 0; }
  bool is_sink() const { return num_outputs_ == 0; }

  // ---- Schemas ----
  /// Called by QueryPlan::Finalize in topological order.
  Status SetInputSchema(int port, SchemaPtr schema);
  const SchemaPtr& input_schema(int port) const {
    return input_schemas_[static_cast<size_t>(port)];
  }
  const SchemaPtr& output_schema(int port) const {
    return output_schemas_[static_cast<size_t>(port)];
  }
  /// Derive output schema(s) from input schema(s). Default: single
  /// output copies input 0 (filter-style); sources must pre-set theirs.
  virtual Status InferSchemas();

  // ---- Lifecycle (invoked by executors) ----
  virtual Status Open(ExecContext* ctx);
  virtual Status ProcessTuple(int port, const Tuple& tuple) = 0;
  /// Process an entire popped page with one virtual dispatch. The
  /// default walks the elements and routes them to ProcessTuple /
  /// ProcessPunctuation / ProcessEos (charging tuples_in); stateless
  /// operators override it with a tight batch loop. `tick` (may be
  /// null) is an executor logical-clock counter incremented once per
  /// element, exactly as the old per-element dispatch advanced it.
  virtual Status ProcessPage(int port, Page&& page, TimeMs* tick);
  /// Embedded punctuation arrived on `port`. Default: forward to all
  /// outputs unchanged when input/output schemas match, else drop.
  virtual Status ProcessPunctuation(int port, const Punctuation& punct);
  /// End of stream on `port`. Default bookkeeping: when every input has
  /// ended, calls OnAllInputsEos. A fan-in overrides it to retire the
  /// port from its punctuation combiner, then calls the base.
  virtual Status ProcessEos(int port);
  /// All inputs exhausted. Default: emit EOS on every output. Stateful
  /// operators override to flush remaining state first (then call the
  /// base implementation).
  virtual Status OnAllInputsEos();
  /// Emit any output this operator has staged but not yet sent (a
  /// partly filled result page). Operators fill output pages across
  /// input pages and flush them when full, before punctuation and at
  /// EOS; the queue-backed executors call this when the task parks —
  /// its input queues are empty, a source goes idle or waits for its
  /// pacing instant — and before it forwards a checkpoint barrier,
  /// then flush the task's output queues (PlanRuntime::FlushStaged).
  /// Only the executor can tell the task is about to park, so
  /// operators never flush per input page. Default: nothing staged.
  virtual Status FlushStaged() { return Status::OK(); }
  virtual Status Close();

  // ---- Upstream control path ----
  /// Control message arrived from the consumer on output `out_port`.
  /// Dispatches feedback to ProcessFeedback; shutdown is latched and
  /// forwarded to all inputs.
  virtual Status ProcessControl(int out_port, const ControlMessage& msg);
  /// Feedback punctuation received (§3.5). Default: feedback-unaware —
  /// count and ignore.
  virtual Status ProcessFeedback(int out_port,
                                 const FeedbackPunctuation& feedback);

  // ---- Durability (checkpoint/recovery) ----
  /// Serialize this operator's state into `w` at a punctuation-aligned
  /// quiescent point (no slice is running, all in-flight work drained
  /// to the barrier). The base implementation captures the EOS
  /// bookkeeping every operator carries; stateful overrides call it
  /// FIRST, then append their own state. Non-const: serialization may
  /// normalize internal representations (e.g. materializing a staged
  /// columnar page's row layout), never observable changes.
  ///
  /// Canonicalization contract: state kept in unordered containers
  /// must be written in a deterministic order (sort by key or by
  /// serialized bytes), so snapshot(restore(snapshot(x))) ==
  /// snapshot(x) byte-for-byte — the round-trip equality the recovery
  /// tests lean on.
  virtual Status SnapshotState(SnapshotWriter* w);
  /// Inverse of SnapshotState, called on a freshly constructed +
  /// Open()ed operator before any element is processed. Overrides call
  /// the base FIRST, mirroring the write order.
  virtual Status RestoreState(SnapshotReader* r);

  // ---- Scheduler placement ----
  /// Pooled-scheduler placement hint: tasks whose operators share a
  /// non-negative affinity key are pinned to the same worker (key mod
  /// pool size), giving shard-parallel subplans cache locality and a
  /// stable worker per SPSC queue side. -1 (default) means "any
  /// worker". Purely advisory — correctness never depends on it (the
  /// single-consumer guarantee comes from task identity, not worker
  /// identity).
  int scheduler_affinity() const { return scheduler_affinity_; }
  void set_scheduler_affinity(int key) { scheduler_affinity_ = key; }
  /// True when every output carries a copy of the same stream
  /// (Duplicate), so one slow consumer need not hold back the others:
  /// the pooled scheduler then stops the task for output credit only
  /// when every output is full. Partitioners keep the default.
  virtual bool outputs_are_copies() const { return false; }

  bool shutdown_requested() const { return shutdown_requested_; }
  bool eos_seen(int port) const {
    return eos_seen_[static_cast<size_t>(port)];
  }
  bool finished() const { return finished_; }

  const OperatorStats& stats() const { return stats_; }
  OperatorStats* mutable_stats() { return &stats_; }

 protected:
  ExecContext* ctx() const { return ctx_; }
  void SetOutputSchema(int port, SchemaPtr schema) {
    output_schemas_[static_cast<size_t>(port)] = std::move(schema);
  }

  /// Shared paged-filter skeleton for single-output filters (Select's
  /// predicate, Pace's lateness policy): run `keep` over the run of
  /// leading tuples, compact survivors IN PLACE, and forward the page
  /// itself to output 0 — arena and all, zero copies. A mixed page
  /// detaches the remainder and PROMOTES its tuples before the page
  /// is emitted, because the page (and the arena owning their
  /// payloads) may be consumed and freed by a downstream thread ahead
  /// of the tail; the tail then walks element-wise. Punctuation / EOS
  /// can only trail the tuples of a queue-built page (punctuation
  /// flushes its page), so order is preserved even for hand-built
  /// mixed pages. `keep` owns all per-tuple stats except tuples_in,
  /// which is charged here.
  template <typename Keep>
  Status FilterPageInPlace(int port, Page&& page, TimeMs* tick,
                           Keep&& keep) {
    if (page.is_columnar()) {
      // Columnar pages filter by SELECTION VECTOR: survivors are
      // recorded as row indices, nothing is moved or compacted. The
      // predicate sees each row through a reused scratch tuple whose
      // slots are flat Value aliases into the columns. Columnar pages
      // are tuples-only, so there is no punctuation tail to split off.
      ColumnarBlock* b = page.columnar();
      Tuple scratch = b->MakeRowScratch();
      b->KeepIf([&](uint32_t r) {
        if (tick) ++*tick;
        ++stats_.tuples_in;
        b->FillRow(r, &scratch);
        return static_cast<bool>(keep(scratch));
      });
      if (!page.empty()) EmitPage(0, std::move(page));
      return Status::OK();
    }
    std::vector<StreamElement>& elems = page.mutable_elements();
    size_t kept = 0;
    size_t i = 0;
    for (; i < elems.size() && elems[i].is_tuple(); ++i) {
      if (tick) ++*tick;
      ++stats_.tuples_in;
      if (!keep(elems[i].tuple())) continue;
      if (kept != i) elems[kept] = std::move(elems[i]);
      ++kept;
    }
    if (i == elems.size()) {
      // Pure-tuple page (the common case): truncate and forward.
      elems.resize(kept);
      if (!page.empty()) EmitPage(0, std::move(page));
      return Status::OK();
    }
    std::vector<StreamElement> rest;
    rest.reserve(elems.size() - i);
    for (size_t j = i; j < elems.size(); ++j) {
      if (elems[j].is_tuple()) elems[j].mutable_tuple().Promote();
      rest.push_back(std::move(elems[j]));
    }
    elems.resize(kept);
    if (!page.empty()) EmitPage(0, std::move(page));
    for (StreamElement& e : rest) {
      if (tick) ++*tick;
      if (e.is_tuple()) {
        ++stats_.tuples_in;
        if (keep(e.tuple())) Emit(0, std::move(e.mutable_tuple()));
      } else if (e.is_punct()) {
        NSTREAM_RETURN_NOT_OK(ProcessPunctuation(port, e.punct()));
      } else {
        NSTREAM_RETURN_NOT_OK(ProcessEos(port));
      }
    }
    return Status::OK();
  }

  // Emission helpers that keep stats in sync.
  void Emit(int out_port, Tuple t) {
    ++stats_.tuples_out;
    ctx_->EmitTuple(out_port, std::move(t));
  }
  void EmitPunct(int out_port, Punctuation p) {
    ++stats_.puncts_out;
    ctx_->EmitPunct(out_port, std::move(p));
  }
  /// Emit a pre-assembled all-tuple page in one call (one queue lock per
  /// page under queue-backed executors). See ExecContext::EmitPage.
  void EmitPage(int out_port, Page&& page) {
    stats_.tuples_out += page.size();
    ctx_->EmitPage(out_port, std::move(page));
  }
  void SendFeedback(int in_port, FeedbackPunctuation fb) {
    ++stats_.feedback_sent;
    fb.set_origin_op(id_);
    fb.set_issued_at_ms(ctx_->NowMs());
    ctx_->EmitFeedback(in_port, std::move(fb));
  }
  void RelayFeedback(int in_port, FeedbackPunctuation fb) {
    ++stats_.feedback_propagated;
    fb.set_hop_count(fb.hop_count() + 1);
    ctx_->EmitFeedback(in_port, std::move(fb));
  }

  OperatorStats stats_;

 private:
  std::string name_;
  int num_inputs_;
  int num_outputs_;
  int64_t id_ = -1;
  ExecContext* ctx_ = nullptr;
  std::vector<SchemaPtr> input_schemas_;
  std::vector<SchemaPtr> output_schemas_;
  std::vector<bool> eos_seen_;
  int eos_count_ = 0;
  int scheduler_affinity_ = -1;
  bool finished_ = false;
  bool shutdown_requested_ = false;
};

/// The canonical page walk: route each element to ProcessTuple /
/// ProcessPunctuation / ProcessEos, charging tuples_in and advancing
/// the executor tick per element. `Operator::ProcessPage` calls it
/// with dynamic dispatch; a `final` operator may call it on its own
/// concrete type from a ProcessPage override to devirtualize and
/// inline the per-element calls (CollectorSink does) — one walk, two
/// dispatch flavors, no duplicated element handling.
template <typename Op>
Status WalkPageElements(Op* op, OperatorStats* stats, int port,
                        Page&& page, TimeMs* tick) {
  if (page.is_columnar()) {
    // Columnar pages walk in place through a reused scratch row (flat
    // Value aliases into the columns) — no per-row span allocation,
    // no StreamElement materialization. The scratch is only valid for
    // the duration of each ProcessTuple call, which is exactly the
    // contract a row-page walk gives (elements die with the page);
    // consumers that retain tuples copy them, and a copy promotes the
    // aliases to self-contained values. Columnar pages are
    // tuples-only, so there is no punctuation/EOS dispatch here.
    const ColumnarBlock* b = page.columnar();
    Tuple scratch = b->MakeRowScratch();
    const uint32_t n = b->size();
    for (uint32_t i = 0; i < n; ++i) {
      if (tick) ++*tick;
      ++stats->tuples_in;
      b->FillRow(b->row_at(i), &scratch);
      NSTREAM_RETURN_NOT_OK(op->ProcessTuple(port, scratch));
    }
    return Status::OK();
  }
  for (StreamElement& e : page.mutable_elements()) {
    if (tick) ++*tick;
    switch (e.kind()) {
      case ElementKind::kTuple:
        ++stats->tuples_in;
        NSTREAM_RETURN_NOT_OK(op->ProcessTuple(port, e.tuple()));
        break;
      case ElementKind::kPunctuation:
        NSTREAM_RETURN_NOT_OK(op->ProcessPunctuation(port, e.punct()));
        break;
      case ElementKind::kEndOfStream:
        NSTREAM_RETURN_NOT_OK(op->ProcessEos(port));
        break;
    }
  }
  return Status::OK();
}

/// Readiness of a source, as seen by an executor's produce loop.
/// Pre-materialized sources (VectorSource) only ever report kReady or
/// kExhausted; an external-input source (ingest) adds the third state:
/// open but momentarily empty, which must NOT end the stream.
enum class SourcePoll : uint8_t {
  kReady = 0,  // an element is available; call ProduceNext
  kIdle,       // open but nothing to produce NOW — park until a wake
  kExhausted,  // stream over: emit EOS and finish the source
};

/// A source operator generates the stream. `NextArrivalMs` exposes the
/// (system-time) instant the next element becomes available, letting
/// the executors pace arrivals (on a VirtualClock or in real time) if
/// asked to.
class SourceOperator : public Operator {
 public:
  SourceOperator(std::string name, int num_outputs = 1)
      : Operator(std::move(name), /*num_inputs=*/0, num_outputs) {}

  /// System time of the next element, or nullopt when exhausted.
  virtual std::optional<TimeMs> NextArrivalMs() = 0;
  /// Emit the element(s) due at NextArrivalMs via ctx().
  virtual Status ProduceNext() = 0;

  /// Readiness check the executors drive the produce loop with. The
  /// default derives it from NextArrivalMs — exactly the historical
  /// contract (a value = ready, nullopt = exhausted) — so existing
  /// sources are untouched. External-input sources override this to
  /// report kIdle while the connection is open but drained.
  virtual SourcePoll Poll() {
    return NextArrivalMs().has_value() ? SourcePoll::kReady
                                       : SourcePoll::kExhausted;
  }

  /// Executors that can park an idle source install a wake callback
  /// here; the source (or its transport) invokes it — possibly from a
  /// producer thread — when new input arrives, re-scheduling the
  /// produce loop. Default: dropped; sources that never report kIdle
  /// have no one to wake.
  virtual void SetWakeNotifier(std::function<void()> fn) { (void)fn; }

  Status ProcessTuple(int, const Tuple&) final {
    return Status::FailedPrecondition("source has no inputs");
  }
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_OPERATOR_H_
