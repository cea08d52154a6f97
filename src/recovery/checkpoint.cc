#include "recovery/checkpoint.h"

namespace nstream {

namespace {

Status WritePayload(QueryPlan* plan, PlanRuntime* rt, SnapshotWriter* w) {
  const int n = plan->num_operators();
  w->WriteU32(static_cast<uint32_t>(n));
  for (int64_t id = 0; id < n; ++id) {
    const Operator* op = plan->op(id);
    w->WriteString(op->name());
    w->WriteU32(static_cast<uint32_t>(op->num_inputs()));
    w->WriteU32(static_cast<uint32_t>(op->num_outputs()));
  }
  for (int64_t id = 0; id < n; ++id) {
    const uint64_t mark = w->BeginSection();
    NSTREAM_RETURN_NOT_OK(plan->op(id)->SnapshotState(w));
    w->EndSection(mark);
  }
  if (rt == nullptr) {
    w->WriteU32(0);
    return Status::OK();
  }
  const auto& conns = rt->connections();
  w->WriteU32(static_cast<uint32_t>(conns.size()));
  for (const auto& conn : conns) {
    const uint64_t mark = w->BeginSection();
    NSTREAM_RETURN_NOT_OK(conn->data->SnapshotContents(w));
    w->EndSection(mark);
  }
  return Status::OK();
}

}  // namespace

Status CheckpointCoordinator::WriteSnapshot(QueryPlan* plan,
                                            PlanRuntime* rt,
                                            const CheckpointOptions& opts) {
  if (opts.path.empty()) {
    return Status::InvalidArgument("checkpoint path is empty");
  }
  NSTREAM_RETURN_NOT_OK(StreamSnapshotFile(
      opts.path, opts.crash_mode,
      [&](SnapshotWriter* w) { return WritePayload(plan, rt, w); }));
  switch (opts.crash_mode) {
    case CheckpointCrashMode::kNone:
      return Status::OK();
    case CheckpointCrashMode::kMidWrite:
      return Status::Cancelled(
          "checkpoint crash injected mid-write (truncated tmp, not "
          "published)");
    case CheckpointCrashMode::kBeforeRename:
      return Status::Cancelled(
          "checkpoint crash injected before rename (tmp complete, not "
          "published)");
  }
  return Status::Internal("unreachable crash mode");
}

Status CheckpointCoordinator::RestorePayload(std::string_view payload,
                                             QueryPlan* plan,
                                             PlanRuntime* rt) {
  SnapshotReader r(payload);
  uint32_t num_ops = 0;
  NSTREAM_RETURN_NOT_OK(r.ReadU32(&num_ops));
  if (static_cast<int>(num_ops) != plan->num_operators()) {
    return Status::InvalidArgument(
        "snapshot/plan mismatch: snapshot has " + std::to_string(num_ops) +
        " operators, plan has " + std::to_string(plan->num_operators()));
  }
  for (int64_t id = 0; id < plan->num_operators(); ++id) {
    const Operator* op = plan->op(id);
    std::string name;
    uint32_t ins = 0, outs = 0;
    NSTREAM_RETURN_NOT_OK(r.ReadString(&name));
    NSTREAM_RETURN_NOT_OK(r.ReadU32(&ins));
    NSTREAM_RETURN_NOT_OK(r.ReadU32(&outs));
    if (name != op->name() ||
        static_cast<int>(ins) != op->num_inputs() ||
        static_cast<int>(outs) != op->num_outputs()) {
      return Status::InvalidArgument(
          "snapshot/plan mismatch at operator " + std::to_string(id) +
          ": snapshot has '" + name + "' (" + std::to_string(ins) + " in/" +
          std::to_string(outs) + " out), plan has '" + op->name() + "'");
    }
  }
  for (int64_t id = 0; id < plan->num_operators(); ++id) {
    std::string_view section;
    NSTREAM_RETURN_NOT_OK(r.ReadSection(&section));
    SnapshotReader sr(section);
    NSTREAM_RETURN_NOT_OK(plan->op(id)->RestoreState(&sr));
    if (!sr.AtEnd()) {
      return Status::InvalidArgument(
          plan->op(id)->name() + ": " + std::to_string(sr.remaining()) +
          " trailing bytes in operator section (codec mismatch)");
    }
  }
  uint32_t num_edges = 0;
  NSTREAM_RETURN_NOT_OK(r.ReadU32(&num_edges));
  if (num_edges == 0) return Status::OK();
  if (rt != nullptr &&
      static_cast<size_t>(num_edges) != rt->connections().size()) {
    return Status::InvalidArgument(
        "snapshot/plan mismatch: snapshot has " + std::to_string(num_edges) +
        " edges, plan has " + std::to_string(rt->connections().size()));
  }
  for (uint32_t i = 0; i < num_edges; ++i) {
    std::string_view section;
    NSTREAM_RETURN_NOT_OK(r.ReadSection(&section));
    if (rt == nullptr) continue;  // operators-only restore
    SnapshotReader sr(section);
    NSTREAM_RETURN_NOT_OK(rt->connections()[i]->data->RestoreContents(&sr));
    if (!sr.AtEnd()) {
      return Status::InvalidArgument(
          "trailing bytes in queue section for edge " + std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace nstream
