// CheckpointCoordinator: builds and restores whole-plan snapshot
// payloads for punctuation-aligned checkpointing (ROADMAP item 5).
//
// Payload layout (inside the snapshot.h file envelope):
//
//   u32 num_ops
//   per op:   string name, u32 num_inputs, u32 num_outputs   (fingerprint)
//   per op:   section(operator state)            -- Operator::SnapshotState
//   u32 num_edges                                -- 0 = no queue capture
//   per edge: section(queue contents)            -- plan->edges() order
//
// The fingerprint pins a snapshot to a structurally identical plan:
// recovery rebuilds the plan from the same (deterministic) construction
// code, and restore refuses a payload whose operator names/arities do
// not match — catching "recovered into the wrong query" at load time
// instead of as garbage state. Length-prefixed sections let an
// operators-only restore skip the queue half entirely.
//
// Quiescence contract: WriteSnapshot must only run while the plan is
// fully parked at a checkpoint barrier (the scheduler guarantees this
// before calling) — it walks operator state and queue internals with
// no synchronization of its own.

#ifndef NSTREAM_RECOVERY_CHECKPOINT_H_
#define NSTREAM_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/query_plan.h"
#include "exec/runtime.h"
#include "recovery/snapshot.h"

namespace nstream {

struct CheckpointOptions {
  std::string path;
  CheckpointCrashMode crash_mode = CheckpointCrashMode::kNone;
};

class CheckpointCoordinator {
 public:
  /// Serialize every operator's state (and, when `rt` is non-null,
  /// every edge queue's in-flight pages) and publish atomically at
  /// `opts.path`. Sections stream straight to the file
  /// (StreamSnapshotFile), so the heap holds one spill buffer, not the
  /// payload. Crash modes return Cancelled after writing the tmp file,
  /// mimicking a process death at that point.
  static Status WriteSnapshot(QueryPlan* plan, PlanRuntime* rt,
                              const CheckpointOptions& opts);

  /// Restore a payload produced by WriteSnapshot into `plan` (which
  /// must be finalized, Open()ed, and structurally identical to the
  /// snapshotted plan). Queue sections are restored into `rt`'s edges
  /// when non-null, skipped otherwise.
  static Status RestorePayload(std::string_view payload, QueryPlan* plan,
                               PlanRuntime* rt);
};

}  // namespace nstream

#endif  // NSTREAM_RECOVERY_CHECKPOINT_H_
