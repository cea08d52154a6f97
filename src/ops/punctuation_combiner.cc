#include "ops/punctuation_combiner.h"

#include <utility>

#include "ops/shard_routing.h"
#include "recovery/snapshot.h"

namespace nstream {

namespace {

/// The attribute a watermark pattern bounds, or -1 if `p` is not one.
int WatermarkAttr(const PunctPattern& p) {
  const std::vector<int> constrained = p.ConstrainedIndices();
  if (constrained.size() != 1) return -1;
  const AttrPattern& ap = p.attr(constrained[0]);
  const bool upper = ap.op() == PatternOp::kLe || ap.op() == PatternOp::kLt;
  return upper && ap.operand().AsDouble().ok() ? constrained[0] : -1;
}

}  // namespace

PunctuationCombiner::PunctuationCombiner(int num_ports,
                                         std::vector<int> partition_keys)
    : partition_keys_(std::move(partition_keys)),
      ports_(static_cast<size_t>(num_ports > 0 ? num_ports : 0)) {}

int PunctuationCombiner::live_ports() const {
  int live = 0;
  for (const Port& p : ports_) live += p.retired ? 0 : 1;
  return live;
}

bool PunctuationCombiner::Settled(const Held& h) const {
  for (size_t i = 0; i < ports_.size(); ++i) {
    if (!ports_[i].retired && !h.made[i]) return false;
  }
  return true;
}

void PunctuationCombiner::EmitSettled(std::vector<Punctuation>* out) {
  for (size_t i = 0; i < held_.size();) {
    if (!Settled(held_[i])) {
      ++i;
      continue;
    }
    ++coalesced_;
    out->emplace_back(std::move(held_[i].pattern));
    held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void PunctuationCombiner::EmitWatermark(std::vector<Punctuation>* out) {
  const Port* low = nullptr;
  for (const Port& p : ports_) {
    if (p.retired) continue;
    // Every live port must bound the same attribute.
    if (p.wm_attr < 0 || (low != nullptr && p.wm_attr != low->wm_attr)) {
      return;
    }
    // On a tied bound, '<' is the narrower claim.
    if (low == nullptr || p.wm_bound < low->wm_bound ||
        (p.wm_bound == low->wm_bound && p.wm.op() == PatternOp::kLt)) {
      low = &p;
    }
  }
  if (low == nullptr || low->wm_bound <= emitted_bound_) return;
  emitted_bound_ = low->wm_bound;
  out->emplace_back(
      PunctPattern::AllWildcard(wm_arity_).With(low->wm_attr, low->wm));
}

std::vector<Punctuation> PunctuationCombiner::Add(int port,
                                                  const Punctuation& punct) {
  std::vector<Punctuation> out;
  if (port < 0 || port >= num_ports()) return out;
  Port& from = ports_[static_cast<size_t>(port)];
  if (from.retired) return out;
  const PunctPattern& p = punct.pattern();

  // A claim implies every narrower one: mark this port on each held
  // claim it covers, then pass on those every live port has made.
  bool already_held = false;
  for (Held& h : held_) {
    if (!punct.Covers(h.pattern)) continue;
    already_held = already_held || h.pattern == p;
    h.made[static_cast<size_t>(port)] = true;
  }
  EmitSettled(&out);

  const int attr = WatermarkAttr(p);
  const int owner =
      attr >= 0 ? -1 : PatternOwnerShard(p, partition_keys_, num_ports());
  if (attr >= 0) {
    // A port keeps bounding the attribute it bounded first.
    const double bound = p.attr(attr).operand().AsDouble().value();
    if (from.wm_attr < 0 || (from.wm_attr == attr && bound > from.wm_bound)) {
      from = Port{false, attr, bound, p.attr(attr)};
      wm_arity_ = p.arity();
    }
    EmitWatermark(&out);
  } else if (owner >= 0) {
    if (owner == port) {
      ++owner_routed_;
      out.push_back(punct);
    } else {
      ++dropped_vacuous_;
    }
  } else if (!already_held) {
    if (held_.size() >= kMaxHeld) held_.clear();
    held_.push_back(Held{p, std::vector<bool>(ports_.size(), false)});
    held_.back().made[static_cast<size_t>(port)] = true;
    EmitSettled(&out);
  }
  return out;
}

std::vector<Punctuation> PunctuationCombiner::Retire(int port) {
  std::vector<Punctuation> out;
  if (port < 0 || port >= num_ports()) return out;
  Port& p = ports_[static_cast<size_t>(port)];
  if (p.retired) return out;
  p.retired = true;
  if (live_ports() == 0) held_.clear();  // the stream is over
  EmitSettled(&out);
  EmitWatermark(&out);
  return out;
}

void PunctuationCombiner::Write(SnapshotWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(ports_.size()));
  w->WriteU32(static_cast<uint32_t>(wm_arity_));
  for (const Port& p : ports_) {
    w->WriteBool(p.retired);
    w->WriteI64(p.wm_attr);
    w->WriteDouble(p.wm_bound);
    w->WriteAttrPattern(p.wm);
  }
  w->WriteDouble(emitted_bound_);
  w->WriteU32(static_cast<uint32_t>(held_.size()));
  for (const Held& h : held_) {
    w->WritePattern(h.pattern);
    for (bool made : h.made) w->WriteBool(made);
  }
}

Status PunctuationCombiner::Read(SnapshotReader* r) {
  uint32_t n = 0;
  NSTREAM_RETURN_NOT_OK(r->ReadU32(&n));
  if (n != ports_.size()) {
    return Status::InvalidArgument("combiner: snapshot port count differs");
  }
  uint32_t arity = 0;
  NSTREAM_RETURN_NOT_OK(r->ReadU32(&arity));
  wm_arity_ = static_cast<int>(arity);
  for (Port& p : ports_) {
    int64_t attr = 0;
    NSTREAM_RETURN_NOT_OK(r->ReadBool(&p.retired));
    NSTREAM_RETURN_NOT_OK(r->ReadI64(&attr));
    NSTREAM_RETURN_NOT_OK(r->ReadDouble(&p.wm_bound));
    NSTREAM_RETURN_NOT_OK(r->ReadAttrPattern(&p.wm));
    if (attr < -1 || attr >= static_cast<int64_t>(arity)) {
      return Status::InvalidArgument("combiner: bad watermark attribute");
    }
    p.wm_attr = static_cast<int>(attr);
  }
  NSTREAM_RETURN_NOT_OK(r->ReadDouble(&emitted_bound_));
  uint32_t held = 0;
  // Each held claim takes at least its 4-byte attr count.
  NSTREAM_RETURN_NOT_OK(r->ReadCount(&held, 4, "combiner held claim"));
  held_.clear();
  held_.reserve(held);
  for (uint32_t i = 0; i < held; ++i) {
    Held h{PunctPattern(), std::vector<bool>(ports_.size(), false)};
    NSTREAM_RETURN_NOT_OK(r->ReadPattern(&h.pattern));
    for (size_t port = 0; port < ports_.size(); ++port) {
      bool made = false;
      NSTREAM_RETURN_NOT_OK(r->ReadBool(&made));
      h.made[port] = made;
    }
    held_.push_back(std::move(h));
  }
  return Status::OK();
}

}  // namespace nstream
