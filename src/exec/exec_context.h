// ExecContext: the executor-provided handle through which an operator
// interacts with the runtime — emitting tuples/punctuation downstream,
// emitting feedback/control upstream, reading the system clock, and
// charging processing cost (virtual time under the manual-mode
// scheduler's VirtualClock).
//
// Operators are written once against this interface and run unchanged
// under the scheduler (pooled, or manual via SyncExecutor) and the
// thread-per-operator executor.

#ifndef NSTREAM_EXEC_EXEC_CONTEXT_H_
#define NSTREAM_EXEC_EXEC_CONTEXT_H_

#include "common/clock.h"
#include "punct/feedback.h"
#include "punct/punct_pattern.h"
#include "stream/control_channel.h"
#include "stream/page.h"
#include "types/tuple.h"

namespace nstream {

class ExecContext {
 public:
  virtual ~ExecContext() = default;

  // ---- Downstream (with the data) ----
  virtual void EmitTuple(int out_port, Tuple t) = 0;
  virtual void EmitPunct(int out_port, Punctuation p) = 0;
  virtual void EmitEos(int out_port) = 0;
  /// Emit a whole pre-assembled page of tuples in one call. Queue-backed
  /// executors override this with DataQueue::PushPage (one lock per page
  /// instead of one per tuple); the default decomposes into per-element
  /// emissions, so operators may use it unconditionally. The page must
  /// contain only tuples — punctuation/EOS keep their dedicated paths.
  virtual void EmitPage(int out_port, Page&& page) {
    page.EnsureRowLayout();  // per-element decomposition needs rows
    for (StreamElement& e : page.mutable_elements()) {
      // The page's arena dies when this call returns.
      e.mutable_tuple().Promote();
      EmitTuple(out_port, std::move(e.mutable_tuple()));
    }
  }
  /// Read by no operator: every executor emits in pages. Kept only for
  /// the bench/e2e replay context that still overrides it.
  virtual bool PagedEmissionPreferred() const { return true; }
  /// Arena backing the open output page of `out_port`, so per-tuple
  /// emitters can build results in place (zero heap allocations per
  /// tuple; payloads are freed wholesale when the consumer drops the
  /// page). Null when the context has no queue behind the port (this
  /// default) — callers must treat null as "build an owned tuple"
  /// (Tuple's arena constructor and Value::StringIn both accept null
  /// for exactly this). A tuple built from the returned arena must be
  /// passed to EmitTuple on the SAME port before any other emission on
  /// that port.
  virtual TupleArena* OpenPageArena(int out_port) {
    (void)out_port;
    return nullptr;
  }

  // ---- Upstream (against the data; out-of-band) ----
  /// Send feedback punctuation to the producer feeding input `in_port`.
  virtual void EmitFeedback(int in_port, FeedbackPunctuation fb) = 0;
  /// Send a raw control message upstream (shutdown, result request).
  virtual void EmitControl(int in_port, ControlMessage msg) = 0;

  // ---- Time & cost ----
  /// Current system time (virtual under a VirtualClock, wall otherwise).
  virtual TimeMs NowMs() const = 0;
  /// Account `cost_ms` of processing time for the current event: under
  /// a VirtualClock the scheduler busy-parks the task for that long;
  /// wall-clock executors ignore it (their cost is real CPU time).
  virtual void ChargeMs(double cost_ms) = 0;

  // ---- Exploitation hooks into pending input ----
  /// Drop tuples matching `pattern` that are buffered on input
  /// `in_port` but not yet delivered (IMPUTE purging late tuples,
  /// Experiment 1). Returns the number of tuples removed. Punctuation
  /// ordering is preserved: removal never reorders elements.
  virtual int PurgeInput(int in_port, const PunctPattern& pattern) {
    (void)in_port;
    (void)pattern;
    return 0;
  }
  /// Move buffered tuples matching `pattern` ahead of non-matching
  /// ones on input `in_port` (desired-punctuation prioritization).
  /// Tuples never cross punctuation boundaries. Returns #promoted.
  virtual int PrioritizeInput(int in_port, const PunctPattern& pattern) {
    (void)in_port;
    (void)pattern;
    return 0;
  }
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_EXEC_CONTEXT_H_
