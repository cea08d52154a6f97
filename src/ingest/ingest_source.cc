#include "ingest/ingest_source.h"

#include <algorithm>
#include <utility>

#include "recovery/snapshot.h"

namespace nstream {

IngestSource::IngestSource(std::string name, SchemaPtr schema,
                           FrameConduit* conduit, IngestSourceOptions opts)
    : SourceOperator(std::move(name)),
      conduit_(conduit),
      opts_(std::move(opts)),
      combiner_(opts_.expected_eos_producers) {
  SetOutputSchema(0, std::move(schema));
}

Status IngestSource::Open(ExecContext* ctx) {
  NSTREAM_RETURN_NOT_OK(Operator::Open(ctx));
  if (!opts_.trace_path.empty()) {
    NSTREAM_RETURN_NOT_OK(trace_.Open(opts_.trace_path));
  }
  return Status::OK();
}

Status IngestSource::Close() {
  Status trace_status = trace_.Close();
  NSTREAM_RETURN_NOT_OK(Operator::Close());
  return trace_status;
}

SourcePoll IngestSource::Poll() {
  if (!pending_error_.ok()) return SourcePoll::kReady;  // surface it
  // Drain before declaring the end: a confirm-hello can trail the
  // final EOS in the queue, and its ack is the producer's only proof
  // its stream landed.
  if (conduit_->HasMuxFrames()) return SourcePoll::kReady;
  if (AllProducersDone()) return CheckMuxExhausted();
  if (conduit_->write_closed()) return CheckMuxExhausted();
  return SourcePoll::kIdle;
}

SourcePoll IngestSource::CheckMuxExhausted() {
  // The stream may only end if every non-quarantined producer's
  // replay covered its checkpointed prefix — otherwise the
  // truncated-on-open trace is missing frames a SECOND crash would
  // need, and at-least-once must fail loudly. Only the restored
  // prefix is load-bearing: a dangling live-resume skip (a producer
  // declared a rewind, confirmed via the ack, and left without
  // resending) uncovers nothing the engine has not already admitted
  // and recorded.
  for (const auto& [id, st] : producers_) {
    if (st.quarantined) continue;
    const uint64_t covered_to = st.admitted - st.skip_remaining;
    const bool short_replay = covered_to < st.restored_admitted;
    const bool hello_never_replayed =
        st.restored_admitted > 0 && !st.hello_seen;
    if (short_replay || hello_never_replayed) {
      pending_error_ = Status::FailedPrecondition(
          name() + ": producer " + std::to_string(id) +
          " replay ended short of the checkpointed offset (" +
          std::to_string(hello_never_replayed
                             ? st.restored_admitted
                             : st.restored_admitted - covered_to) +
          " frame(s) uncovered)");
      return SourcePoll::kReady;
    }
  }
  return SourcePoll::kExhausted;
}

std::optional<TimeMs> IngestSource::NextArrivalMs() {
  // Network arrivals are "now or unknown": ready frames are due
  // immediately, and an idle conduit has no predictable next-arrival
  // instant.
  if (Poll() == SourcePoll::kReady) return 0;
  return std::nullopt;
}

Status IngestSource::ProduceNext() {
  for (int i = 0; i < opts_.max_frames_per_produce; ++i) {
    if (!pending_error_.ok()) return pending_error_;
    std::optional<MuxFrame> mux = conduit_->TryPopMuxFrame();
    if (!mux.has_value()) break;
    Status s = ProcessMuxFrame(*mux);
    if (!s.ok()) {
      pending_error_ = s;  // stay kReady so the failure is sticky
      return s;
    }
  }
  return Status::OK();
}

Status IngestSource::ProcessMuxFrame(const MuxFrame& mux) {
  if (mux.producer == 0) {
    // The acceptor rejects anonymous hellos and trace records carry
    // real ids, so a 0-tagged frame is a harness bug, not a sick
    // producer — fail the query rather than quarantine "broadcast".
    return Status::InvalidArgument(
        name() + ": mux frame with reserved producer id 0");
  }
  // Re-validate defensively even though the acceptor (or trace
  // replayer) already framed these bytes: the conduit is a boundary.
  FrameView f;
  size_t consumed = 0;
  Status scan = ScanFrame(mux.bytes, &f, &consumed);
  if (!scan.ok() || consumed != mux.bytes.size() || consumed == 0) {
    QuarantineProducer(mux.producer, scan.ok() ? "malformed mux frame"
                                               : scan.message());
    return Status::OK();
  }
  if (f.type == FrameType::kHeartbeat) return Status::OK();  // liveness only
  ProducerState& st = producers_[mux.producer];
  if (st.quarantined) {
    ++quarantined_frames_;  // late frames from a cut-off producer
    return Status::OK();
  }
  if (f.type == FrameType::kError) {
    // The acceptor already quarantined this connection at the framing
    // layer and forwards its notice so the session is counted done
    // here too (otherwise expected_eos_producers could hang on it).
    std::string msg;
    (void)DecodeError(f.payload, &msg);
    QuarantineProducer(mux.producer,
                       msg.empty() ? "quarantined by acceptor" : msg);
    return Status::OK();
  }
  if (f.type == FrameType::kHello) {
    return ProcessMuxHello(mux.producer, f);
  }
  if (!st.hello_seen) {
    QuarantineProducer(mux.producer, "frame before hello");
    return Status::OK();
  }
  if (st.skip_remaining > 0) {
    // A duplicate the producer re-sent (live reconnect resume) or a
    // recovery replay re-delivered. Frames below the restored offset
    // were recorded by a PREVIOUS incarnation, so they must be
    // re-appended to this incarnation's truncated-on-open trace;
    // live-resume duplicates are already in it.
    const uint64_t idx = st.admitted - st.skip_remaining;
    if (idx < st.restored_admitted) {
      if (trace_.is_open() && idx >= st.reappended_high) {
        NSTREAM_RETURN_NOT_OK(trace_.AppendTagged(mux.producer, mux.bytes));
        st.reappended_high = idx + 1;
      }
      ++replayed_skips_;
    } else {
      ++resume_skips_;
    }
    --st.skip_remaining;
    return Status::OK();
  }
  if (st.eos_seen) {
    QuarantineProducer(mux.producer, "frame after EOS");
    return Status::OK();
  }
  switch (f.type) {
    case FrameType::kTupleBatch: {
      Status s = EmitBatch(f.payload);
      if (!s.ok()) {
        QuarantineProducer(mux.producer, s.message());
        return Status::OK();
      }
      break;
    }
    case FrameType::kPunctuation: {
      Punctuation p;
      Status s = DecodePunctuation(f.payload, &p);
      // Barrier ids belong to the checkpoint coordinator: the scheduler
      // would strip a forged one as a barrier and align a port on it.
      if (s.ok() && p.is_barrier()) {
        s = Status::InvalidArgument("punctuation with a barrier id");
      }
      if (s.ok()) s = p.pattern().Validate(*output_schema(0));
      if (!s.ok()) {
        QuarantineProducer(mux.producer, s.message());
        return Status::OK();
      }
      EmitClaims(combiner_.Add(st.port, p));
      break;
    }
    case FrameType::kEos:
      if (!f.payload.empty()) {
        QuarantineProducer(mux.producer, "EOS frame with payload");
        return Status::OK();
      }
      st.eos_seen = true;
      EmitClaims(combiner_.Retire(st.port));
      break;
    default:
      // kFeedback / kHelloAck / kShed flow engine → producer only.
      QuarantineProducer(mux.producer,
                         "engine-direction frame from producer");
      return Status::OK();
  }
  ++st.admitted;
  ++admitted_frames_;
  if (trace_.is_open()) {
    NSTREAM_RETURN_NOT_OK(trace_.AppendTagged(mux.producer, mux.bytes));
  }
  return Status::OK();
}

Status IngestSource::ProcessMuxHello(uint64_t producer, const FrameView& f) {
  ProducerState& st = producers_[producer];
  uint32_t version = 0;
  uint32_t arity = 0;
  uint64_t wire_producer = 0;
  uint64_t resume = 0;
  Status s = DecodeHello(f.payload, &version, &arity, &wire_producer,
                         &resume);
  if (!s.ok()) {
    QuarantineProducer(producer, s.message());
    return Status::OK();
  }
  if (version != kWireVersion) {
    QuarantineProducer(producer, "wire version " + std::to_string(version) +
                                     " != supported " +
                                     std::to_string(kWireVersion));
    return Status::OK();
  }
  const uint32_t want =
      static_cast<uint32_t>(output_schema(0)->num_fields());
  if (arity != want) {
    QuarantineProducer(producer,
                       "producer arity " + std::to_string(arity) +
                           " != schema arity " + std::to_string(want));
    return Status::OK();
  }
  if (wire_producer != producer) {
    QuarantineProducer(producer, "hello producer id " +
                                     std::to_string(wire_producer) +
                                     " does not match connection");
    return Status::OK();
  }
  if (resume > st.admitted) {
    // The producer wants to resume PAST what the engine admitted: the
    // gap would silently drop frames, violating at-least-once.
    QuarantineProducer(producer,
                       "resume offset " + std::to_string(resume) +
                           " beyond acknowledged " +
                           std::to_string(st.admitted));
    return Status::OK();
  }
  if (opts_.expected_eos_producers > 0 && !TakePort(&st)) {
    QuarantineProducer(producer,
                       "producer beyond the expected " +
                           std::to_string(opts_.expected_eos_producers));
    return Status::OK();
  }
  st.hello_seen = true;
  st.skip_remaining = st.admitted - resume;
  ++admitted_frames_;
  if (trace_.is_open()) {
    // Record the hello with its resume offset CANONICALIZED to the
    // index of the next frame this trace will actually append after
    // it: re-appended replay duplicates start at the resume point, but
    // live-resume duplicates are skipped without re-recording, so a
    // verbatim hello would make a later replay miscount its skips.
    uint64_t canonical = st.admitted;
    const uint64_t lo = std::max(resume, st.reappended_high);
    const uint64_t hi = std::min(st.admitted, st.restored_admitted);
    if (lo < hi) canonical = lo;
    std::string rec;
    AppendHelloFrame(&rec, arity, producer, canonical);
    NSTREAM_RETURN_NOT_OK(trace_.AppendTagged(producer, rec));
  }
  // Ack with the engine's acknowledged offset so a producer that lost
  // its own send cursor (fresh process, stale counter) rewinds or
  // fast-forwards to exactly where the engine stands.
  std::string ack;
  AppendHelloAckFrame(&ack, st.admitted);
  conduit_->PushFeedbackFrameTo(producer, std::move(ack));
  return Status::OK();
}

void IngestSource::QuarantineProducer(uint64_t producer,
                                      const std::string& reason) {
  ProducerState& st = producers_[producer];
  if (st.quarantined) return;
  st.quarantined = true;
  ++quarantined_producers_;
  if (TakePort(&st)) EmitClaims(combiner_.Retire(st.port));  // done
  std::string err;
  AppendErrorFrame(&err, name() + ": producer " + std::to_string(producer) +
                             " quarantined: " + reason);
  conduit_->PushFeedbackFrameTo(producer, std::move(err));
}

bool IngestSource::AllProducersDone() const {
  return combiner_.num_ports() > 0 && combiner_.live_ports() == 0;
}

bool IngestSource::TakePort(ProducerState* st) {
  if (st->port < 0 && next_port_ < combiner_.num_ports()) {
    st->port = next_port_++;
  }
  return st->port >= 0;
}

void IngestSource::EmitClaims(std::vector<Punctuation> claims) {
  for (Punctuation& claim : claims) {
    // §4.4: a claim covering an admission guard proves the guard can
    // never block again — expire it at the edge too.
    admission_guards_.ExpireCovered(claim);
    EmitPunct(0, std::move(claim));
  }
}

uint64_t IngestSource::acknowledged_offset(uint64_t producer) const {
  auto it = producers_.find(producer);
  return it == producers_.end() ? 0 : it->second.admitted;
}

Status IngestSource::EmitBatch(std::string_view payload) {
  Page page;
  const uint32_t arity =
      static_cast<uint32_t>(output_schema(0)->num_fields());
  NSTREAM_RETURN_NOT_OK(DecodeTupleBatchInto(
      payload, arity, &page, /*allow_columnar=*/true, &next_id_));
  ApplyAdmissionGuards(&page);
  if (!page.empty()) {
    page.set_flush_reason(FlushReason::kPageFull);
    EmitPage(0, std::move(page));
  }
  return Status::OK();
}

void IngestSource::ApplyAdmissionGuards(Page* page) {
  if (admission_guards_.empty() || page->empty()) return;
  if (page->is_columnar()) {
    ColumnarBlock* b = page->columnar();
    Tuple scratch = b->MakeRowScratch();
    b->KeepIf([&](uint32_t r) {
      b->FillRow(r, &scratch);
      if (admission_guards_.Blocks(scratch)) {
        ++stats_.input_guard_drops;
        return false;
      }
      return true;
    });
    return;
  }
  std::vector<StreamElement>& elems = page->mutable_elements();
  size_t kept = 0;
  for (size_t i = 0; i < elems.size(); ++i) {
    if (admission_guards_.Blocks(elems[i].tuple())) {
      ++stats_.input_guard_drops;
      continue;
    }
    if (kept != i) elems[kept] = std::move(elems[i]);
    ++kept;
  }
  elems.resize(kept);
}

Status IngestSource::ProcessFeedback(int out_port,
                                     const FeedbackPunctuation& feedback) {
  (void)out_port;
  // Exploit: assumed subsets are dropped at admission, before they cost
  // the plan a single queue hop.
  if (feedback.is_assumed()) {
    admission_guards_.Add(feedback.pattern());
  }
  // Relay: every intent crosses the wire to every producer — assumed
  // prunes its send set, desired/demanded reorder it.
  std::string frame;
  AppendFeedbackFrame(&frame, feedback);
  conduit_->PushFeedbackFrameTo(0, std::move(frame));
  ++stats_.feedback_propagated;
  return Status::OK();
}

Status IngestSource::SnapshotState(SnapshotWriter* w) {
  NSTREAM_RETURN_NOT_OK(Operator::SnapshotState(w));
  // The barrier runs between produce slices and frames are processed
  // atomically within a slice, so admitted counts are exact: every
  // admitted frame's effects are fully emitted (and thus captured
  // downstream or in queue sections), none half so.
  w->WriteU64(admitted_frames_);
  w->WriteI64(next_id_);
  w->WriteGuardSet(admission_guards_);
  w->WriteU64(producers_.size());
  for (const auto& [id, st] : producers_) {
    w->WriteU64(id);
    w->WriteU64(st.admitted);  // the per-producer acknowledged offset
    w->WriteBool(st.eos_seen);
    w->WriteBool(st.quarantined);
    w->WriteI64(st.port);
  }
  combiner_.Write(w);
  return Status::OK();
}

Status IngestSource::RestoreState(SnapshotReader* r) {
  NSTREAM_RETURN_NOT_OK(Operator::RestoreState(r));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&admitted_frames_));
  NSTREAM_RETURN_NOT_OK(r->ReadI64(&next_id_));
  NSTREAM_RETURN_NOT_OK(r->ReadGuardSet(&admission_guards_));
  uint64_t count = 0;
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&count));
  producers_.clear();
  next_port_ = 0;
  std::vector<bool> port_taken(static_cast<size_t>(combiner_.num_ports()));
  quarantined_producers_ = 0;
  quarantined_frames_ = 0;
  replayed_skips_ = 0;
  resume_skips_ = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    NSTREAM_RETURN_NOT_OK(r->ReadU64(&id));
    ProducerState st;
    NSTREAM_RETURN_NOT_OK(r->ReadU64(&st.admitted));
    NSTREAM_RETURN_NOT_OK(r->ReadBool(&st.eos_seen));
    NSTREAM_RETURN_NOT_OK(r->ReadBool(&st.quarantined));
    int64_t port = 0;
    NSTREAM_RETURN_NOT_OK(r->ReadI64(&port));
    if (port < -1 || port >= combiner_.num_ports() ||
        (port >= 0 && port_taken[static_cast<size_t>(port)])) {
      return Status::InvalidArgument(name() + ": bad producer port");
    }
    if (port >= 0) port_taken[static_cast<size_t>(port)] = true;
    st.port = static_cast<int>(port);
    next_port_ = std::max(next_port_, st.port + 1);
    // Per-producer replay contract: the replayed trace (or a
    // reconnecting producer's hello) re-announces each session; skips
    // start when that hello arrives. Everything below the restored
    // offset must be re-appended to the truncated trace.
    st.restored_admitted = st.admitted;
    st.reappended_high = 0;
    st.skip_remaining = 0;
    st.hello_seen = false;
    if (st.quarantined) ++quarantined_producers_;
    producers_.emplace(id, st);
  }
  return combiner_.Read(r);
}

}  // namespace nstream
