#include "ops/window_aggregate.h"

#include <algorithm>

#include "common/string_util.h"
#include "recovery/snapshot.h"

namespace nstream {

// Cap on per-feedback derived propagations (the "propagate G" row).
constexpr size_t kMaxPropagations = 64;

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMax:
      return "max";
    case AggKind::kMin:
      return "min";
  }
  return "?";
}

struct WindowAggregate::Key {
  int64_t wid = 0;
  std::vector<Value> groups;

  bool operator==(const Key& o) const {
    return wid == o.wid && groups == o.groups;
  }
};

struct WindowAggregate::KeyHash {
  size_t operator()(const Key& k) const {
    size_t h = std::hash<int64_t>{}(k.wid);
    for (const Value& v : k.groups) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct WindowAggregate::KeyEq {
  bool operator()(const Key& a, const Key& b) const { return a == b; }
};

struct WindowAggregate::Partial {
  int64_t count = 0;
  double sum = 0;
  double max = -1e308;
  double min = 1e308;
};

WindowAggregate::WindowAggregate(std::string name,
                                 WindowAggregateOptions options)
    : Operator(std::move(name), 1, 1),
      options_([&] {
        if (options.output_page_size <= 0) options.output_page_size = 1;
        return std::move(options);
      }()),
      num_groups_(static_cast<int>(options_.group_attrs.size())),
      agg_out_idx_(1 + num_groups_),
      state_(std::make_unique<
             std::unordered_map<Key, Partial, KeyHash, KeyEq>>()),
      tombstones_(
          std::make_unique<std::unordered_set<Key, KeyHash, KeyEq>>()) {}

WindowAggregate::~WindowAggregate() = default;

AggMonotonicity WindowAggregate::monotonicity() const {
  switch (options_.kind) {
    case AggKind::kCount:
    case AggKind::kMax:
      return AggMonotonicity::kNonDecreasing;
    case AggKind::kMin:
      return AggMonotonicity::kNonIncreasing;
    case AggKind::kSum:
      return options_.assume_non_negative
                 ? AggMonotonicity::kNonDecreasing
                 : AggMonotonicity::kNone;
    case AggKind::kAvg:
      return AggMonotonicity::kNone;
  }
  return AggMonotonicity::kNone;
}

Status WindowAggregate::InferSchemas() {
  const Schema& in = *input_schema(0);
  if (options_.ts_attr < 0 || options_.ts_attr >= in.num_fields()) {
    return Status::OutOfRange(name() + ": ts_attr out of range");
  }
  std::vector<Field> out;
  out.emplace_back("window_end", ValueType::kTimestamp);
  for (int g : options_.group_attrs) {
    if (g < 0 || g >= in.num_fields()) {
      return Status::OutOfRange(name() + ": group attr out of range");
    }
    out.push_back(in.field(g));
  }
  ValueType agg_type = options_.kind == AggKind::kCount
                           ? ValueType::kInt64
                           : ValueType::kDouble;
  std::string agg_name = std::string(AggKindName(options_.kind));
  if (options_.agg_attr >= 0) {
    if (options_.agg_attr >= in.num_fields()) {
      return Status::OutOfRange(name() + ": agg attr out of range");
    }
    agg_name += "_" + in.field(options_.agg_attr).name;
  }
  out.emplace_back(agg_name, agg_type);
  SetOutputSchema(0, Schema::Make(std::move(out)));
  return Status::OK();
}

Tuple WindowAggregate::MakeOutput(const Key& key, const Partial& p,
                                  TupleArena* arena) const {
  Tuple t(arena, 1 + key.groups.size() + 1);
  t.Append(Value::Timestamp(options_.window.WindowEnd(key.wid)));
  for (const Value& g : key.groups) t.Append(g);
  switch (options_.kind) {
    case AggKind::kCount:
      t.Append(Value::Int64(p.count));
      break;
    case AggKind::kSum:
      t.Append(Value::Double(p.sum));
      break;
    case AggKind::kAvg:
      t.Append(p.count > 0 ? Value::Double(p.sum / p.count)
                           : Value::Null());
      break;
    case AggKind::kMax:
      t.Append(p.count > 0 ? Value::Double(p.max) : Value::Null());
      break;
    case AggKind::kMin:
      t.Append(p.count > 0 ? Value::Double(p.min) : Value::Null());
      break;
  }
  return t;
}

bool WindowAggregate::GroupGuardBlocks(int64_t wid,
                                       const Tuple& tuple) const {
  // Group guards constrain only the window_end and group positions
  // (DecideAggFeedback routes agg-constrained patterns elsewhere), so
  // they can be evaluated against the raw input values directly.
  Value we = Value::Timestamp(options_.window.WindowEnd(wid));
  for (const PunctPattern& p : group_guards_.patterns()) {
    if (p.arity() != 1 + num_groups_ + 1) continue;
    if (!p.attr(0).Matches(we)) continue;
    bool all = true;
    for (int gi = 0; gi < num_groups_; ++gi) {
      if (!p.attr(1 + gi).Matches(tuple.value(
              options_.group_attrs[static_cast<size_t>(gi)]))) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

Tuple WindowAggregate::MakeProbe(const Key& key) const {
  Tuple t;
  t.Append(Value::Timestamp(options_.window.WindowEnd(key.wid)));
  for (const Value& g : key.groups) t.Append(g);
  t.Append(Value::Null());
  return t;
}

void WindowAggregate::ApplyPartial(Partial& p, double v) {
  ++p.count;
  p.sum += v;
  if (v > p.max || p.count == 1) p.max = v;
  if (v < p.min || p.count == 1) p.min = v;
}

uint64_t WindowAggregate::HashKeyOf(int64_t wid, const Tuple& t) const {
  // Mirrors KeyHash over the Key this (tuple, window) would build:
  // equal keys hash equally, which is all the run grouping needs
  // (group membership is verified value-by-value via SameKey).
  size_t h = std::hash<int64_t>{}(wid);
  for (int g : options_.group_attrs) {
    h ^= t.value(g).Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool WindowAggregate::SameKey(const Key& key, int64_t wid,
                              const Tuple& t) const {
  if (key.wid != wid) return false;
  for (int gi = 0; gi < num_groups_; ++gi) {
    if (!(key.groups[static_cast<size_t>(gi)] ==
          t.value(options_.group_attrs[static_cast<size_t>(gi)]))) {
      return false;
    }
  }
  return true;
}

Status WindowAggregate::UpdateState(const Tuple& tuple, int64_t wid,
                                    double v) {
  Key key;
  key.wid = wid;
  key.groups.reserve(static_cast<size_t>(num_groups_));
  for (int g : options_.group_attrs) key.groups.push_back(tuple.value(g));

  if (!tombstones_->empty() && tombstones_->count(key) > 0) {
    ++stats_.input_guard_drops;
    ++updates_skipped_;
    return Status::OK();
  }
  for (int w = 0; w < options_.work_iters_per_update; ++w) {
    work_checksum_ =
        work_checksum_ * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  auto [it, inserted] = state_->try_emplace(std::move(key));
  ApplyPartial(it->second, v);
  ++updates_applied_;

  // Monotone purge check (the MAX ¬[*,≥50] behaviour): if an active
  // feedback pattern now provably covers this entry's final result,
  // drop the state and tombstone the key so late tuples cannot
  // recreate it with a wrong partial (§3.5's value-40 pitfall).
  if (!purge_partial_patterns_.empty()) {
    Tuple out = MakeOutput(it->first, it->second);
    for (const PunctPattern& pat : purge_partial_patterns_) {
      if (pat.Matches(out)) {
        tombstones_->insert(it->first);
        state_->erase(it);
        ++stats_.state_purged;
        break;
      }
    }
  }
  return Status::OK();
}

Status WindowAggregate::ProcessTuple(int, const Tuple& tuple) {
  Result<int64_t> ts = tuple.value(options_.ts_attr).AsInt64();
  if (!ts.ok()) return Status::OK();  // untimestamped: contribute nothing

  // The aggregated value (ignored for COUNT(*)).
  double v = 0;
  if (options_.agg_attr >= 0) {
    Result<double> rv = tuple.value(options_.agg_attr).AsDouble();
    if (rv.ok()) {
      v = rv.value();
    } else if (options_.kind != AggKind::kCount) {
      return Status::OK();  // NULL value: no contribution (SQL-style)
    }
  }

  for (int64_t wid : options_.window.WindowsOf(ts.value())) {
    if (wid <= closed_through_) continue;  // window already closed
    // Guard check first, on the raw values — the input guard must be
    // cheaper than the aggregation it avoids (no probe-tuple
    // allocation on this path).
    if (!group_guards_.empty() && GroupGuardBlocks(wid, tuple)) {
      ++stats_.input_guard_drops;
      ++updates_skipped_;
      continue;
    }
    NSTREAM_RETURN_NOT_OK(UpdateState(tuple, wid, v));
  }
  return Status::OK();
}

Status WindowAggregate::ProcessPage(int port, Page&& page, TimeMs* tick) {
  if (!options_.page_batched_input) {
    return Operator::ProcessPage(port, std::move(page), tick);
  }
  // Batched walk, same shape as the join's: runs of tuples between
  // punctuation/EOS boundaries take the grouped update; the
  // boundaries keep guard/tombstone/closed-window state fixed within
  // a run, so per-run decisions match the element-wise walk's.
  // Columnar input materializes rows first: the aggregation reads
  // each tuple's attrs several times across passes, so aliased row
  // gather (flat field copies) is the cheap, simple bridge.
  page.EnsureRowLayout();
  std::vector<StreamElement>& elems = page.mutable_elements();
  size_t i = 0;
  while (i < elems.size()) {
    if (elems[i].is_tuple()) {
      size_t j = i + 1;
      while (j < elems.size() && elems[j].is_tuple()) ++j;
      NSTREAM_RETURN_NOT_OK(ProcessTupleRun(elems, i, j, tick));
      i = j;
    } else {
      if (tick) ++*tick;
      if (elems[i].is_punct()) {
        NSTREAM_RETURN_NOT_OK(ProcessPunctuation(port, elems[i].punct()));
      } else {
        NSTREAM_RETURN_NOT_OK(ProcessEos(port));
      }
      ++i;
    }
  }
  return Status::OK();
}

Status WindowAggregate::FlushStaged() {
  FlushOutput();
  return Status::OK();
}

Status WindowAggregate::ProcessTupleRun(std::vector<StreamElement>& elems,
                                        size_t begin, size_t end,
                                        TimeMs* tick) {
  // Purge-on-partial feedback performs per-update state surgery
  // (erase + tombstone) that the grouped path cannot replicate
  // without per-item re-checks; fall back to the element walk while
  // any such pattern is active (rare: only after monotone assumed
  // feedback, and expired by the next covering punctuation).
  if (!purge_partial_patterns_.empty()) {
    for (size_t e = begin; e < end; ++e) {
      if (tick) ++*tick;
      ++stats_.tuples_in;
      NSTREAM_RETURN_NOT_OK(ProcessTuple(0, elems[e].tuple()));
    }
    return Status::OK();
  }

  // Pass 1: per-(tuple, window) admission — timestamp, value, closed
  // window, group guard — exactly ProcessTuple's checks and counter
  // increments, plus one group-hash computation.
  std::vector<RunItem>& run = run_scratch_;
  run.clear();
  for (size_t e = begin; e < end; ++e) {
    if (tick) ++*tick;
    ++stats_.tuples_in;
    const Tuple& tuple = elems[e].tuple();
    Result<int64_t> ts = tuple.value(options_.ts_attr).AsInt64();
    if (!ts.ok()) continue;
    double v = 0;
    if (options_.agg_attr >= 0) {
      Result<double> rv = tuple.value(options_.agg_attr).AsDouble();
      if (rv.ok()) {
        v = rv.value();
      } else if (options_.kind != AggKind::kCount) {
        continue;
      }
    }
    for (int64_t wid : options_.window.WindowsOf(ts.value())) {
      if (wid <= closed_through_) continue;
      if (!group_guards_.empty() && GroupGuardBlocks(wid, tuple)) {
        ++stats_.input_guard_drops;
        ++updates_skipped_;
        continue;
      }
      RunItem item;
      item.elem = static_cast<uint32_t>(e);
      item.wid = wid;
      item.hash = HashKeyOf(wid, tuple);
      item.v = v;
      run.push_back(item);
    }
  }
  if (run.empty()) return Status::OK();

  // Pass 2: group by hash. The element-index tiebreak keeps items of
  // one group in element order, so floating-point partial sums
  // accumulate in exactly the element-wise walk's order.
  std::sort(run.begin(), run.end(),
            [](const RunItem& a, const RunItem& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              if (a.elem != b.elem) return a.elem < b.elem;
              return a.wid < b.wid;
            });

  // Pass 3: per group, build the Key once and probe the state map
  // once. Items whose actual key differs (hash collision) take the
  // keyed single-update path; everything else applies straight to the
  // group's partial.
  size_t g = 0;
  while (g < run.size()) {
    size_t h = g + 1;
    while (h < run.size() && run[h].hash == run[g].hash) ++h;

    const Tuple& t0 = elems[run[g].elem].tuple();
    Key key;
    key.wid = run[g].wid;
    key.groups.reserve(static_cast<size_t>(num_groups_));
    for (int ga : options_.group_attrs) {
      key.groups.push_back(t0.value(ga));
    }
    const bool tombstoned =
        !tombstones_->empty() && tombstones_->count(key) > 0;
    // Pointers, not iterators: a collision item's UpdateState may
    // insert and rehash the map, which invalidates iterators but
    // never element references.
    Partial* partial = nullptr;
    const Key* group_key = &key;
    for (size_t m = g; m < h; ++m) {
      const Tuple& tuple = elems[run[m].elem].tuple();
      if (m > g && !SameKey(*group_key, run[m].wid, tuple)) {
        NSTREAM_RETURN_NOT_OK(UpdateState(tuple, run[m].wid, run[m].v));
        continue;
      }
      if (tombstoned) {
        ++stats_.input_guard_drops;
        ++updates_skipped_;
        continue;
      }
      for (int w = 0; w < options_.work_iters_per_update; ++w) {
        work_checksum_ = work_checksum_ * 6364136223846793005ULL +
                         1442695040888963407ULL;
      }
      if (partial == nullptr) {
        auto res = state_->try_emplace(std::move(key));
        partial = &res.first->second;
        group_key = &res.first->first;
      }
      ApplyPartial(*partial, run[m].v);
      ++updates_applied_;
    }
    g = h;
  }
  return Status::OK();
}

void WindowAggregate::EmitResult(const Key& key, const Partial& p) {
  // Staged results build straight into the staging page's arena (zero
  // heap allocations per result).
  Tuple out = MakeOutput(key, p, out_staged_.arena());
  if (output_guards_.Blocks(out)) {
    ++stats_.output_guard_drops;
    return;
  }
  // Columnar staging: results land as one flat slot store per
  // attribute in the staged page's column arrays (the row tuple above
  // lives in the same arena, so string bytes re-borrow — no clones).
  // Row staging remains the fallback when the columnar layout or
  // arenas are off.
  ColumnarBlock* blk =
      out_staged_.is_columnar() ? out_staged_.columnar() : nullptr;
  if (blk == nullptr && out_staged_.empty()) {
    if (PageColumnar::enabled()) {
      blk = out_staged_.BeginColumnar(
          static_cast<uint32_t>(out.size()),
          static_cast<uint32_t>(options_.output_page_size));
    }
    if (blk == nullptr) {
      out_staged_.Reserve(static_cast<size_t>(options_.output_page_size));
    }
  }
  if (blk != nullptr) {
    const uint32_t r = blk->AddRow(out.id(), out.arrival_ms());
    for (int c = 0; c < out.size(); ++c) {
      blk->Set(static_cast<uint32_t>(c), r, out.value(c));
    }
  } else {
    out_staged_.Add(StreamElement::OfTuple(std::move(out)));
  }
  if (static_cast<int>(out_staged_.size()) >= options_.output_page_size) {
    FlushOutput();
  }
}

void WindowAggregate::FlushOutput() {
  if (out_staged_.empty()) {
    // Same dead-payload reset as the join's FlushOutput: results
    // built in the staging arena but dropped by an output guard must
    // not accumulate across flush points.
    if (out_staged_.arena_if_created() != nullptr) out_staged_ = Page();
    return;
  }
  EmitPage(0, std::move(out_staged_));
  out_staged_ = Page();
}

void WindowAggregate::CloseThrough(int64_t last_closable) {
  if (last_closable <= closed_through_) return;
  // Deterministic emission order: (window, group rendering).
  std::vector<const Key*> to_close;
  for (const auto& [key, p] : *state_) {
    if (key.wid <= last_closable) to_close.push_back(&key);
  }
  std::sort(to_close.begin(), to_close.end(),
            [](const Key* a, const Key* b) {
              if (a->wid != b->wid) return a->wid < b->wid;
              for (size_t i = 0;
                   i < a->groups.size() && i < b->groups.size(); ++i) {
                Result<int> c = a->groups[i].Compare(b->groups[i]);
                int cc = c.ok() ? c.value() : 0;
                if (cc != 0) return cc < 0;
              }
              return false;
            });
  for (const Key* key : to_close) {
    EmitResult(*key, state_->at(*key));
  }
  for (const Key* key : to_close) state_->erase(*key);

  // Tombstones for closed windows are dead state — reclaim (§4.4).
  for (auto it = tombstones_->begin(); it != tombstones_->end();) {
    if (it->wid <= last_closable) {
      it = tombstones_->erase(it);
    } else {
      ++it;
    }
  }
  closed_through_ = last_closable;

  // Tell downstream which windows are complete, and expire guards the
  // punctuation now covers.
  PunctPattern out_p =
      PunctPattern::AllWildcard(output_schema(0)->num_fields());
  out_p = out_p.With(
      0, AttrPattern::Le(Value::Timestamp(
             options_.window.WindowEnd(last_closable))));
  Punctuation punct(out_p);
  output_guards_.ExpireCovered(punct);
  group_guards_.ExpireCovered(punct);
  std::vector<PunctPattern> kept;
  for (PunctPattern& pat : purge_partial_patterns_) {
    if (!punct.Covers(pat)) kept.push_back(std::move(pat));
  }
  purge_partial_patterns_ = std::move(kept);
  FlushOutput();  // results for the closed windows precede the claim
  EmitPunct(0, std::move(punct));
}

Status WindowAggregate::ProcessPunctuation(int, const Punctuation& punct) {
  ++stats_.puncts_in;
  // Watermark punctuation on the timestamp attribute closes windows.
  const PunctPattern& p = punct.pattern();
  std::vector<int> constrained = p.ConstrainedIndices();
  if (constrained.size() != 1 || constrained[0] != options_.ts_attr) {
    return Status::OK();  // not a progress claim we can use
  }
  const AttrPattern& ap = p.attr(options_.ts_attr);
  Result<int64_t> bound = ap.operand().AsInt64();
  if (!bound.ok()) return Status::OK();
  int64_t inclusive = bound.value();
  if (ap.op() == PatternOp::kLt) {
    inclusive -= 1;
  } else if (ap.op() != PatternOp::kLe) {
    return Status::OK();
  }
  CloseThrough(options_.window.LastClosableWindow(inclusive));
  return Status::OK();
}

Status WindowAggregate::OnAllInputsEos() {
  // End of stream closes everything still open.
  int64_t max_wid = INT64_MIN;
  for (const auto& [key, p] : *state_) max_wid = std::max(max_wid, key.wid);
  if (max_wid != INT64_MIN) CloseThrough(max_wid);
  return Operator::OnAllInputsEos();
}

std::optional<PunctPattern> WindowAggregate::MapToInput(
    const PunctPattern& f) const {
  PunctPattern out =
      PunctPattern::AllWildcard(input_schema(0)->num_fields());
  for (int idx : f.ConstrainedIndices()) {
    if (idx == 0) {
      Result<AttrPattern> ts =
          MapWindowEndToTimestamp(f.attr(0), options_.window);
      if (!ts.ok()) return std::nullopt;
      out = out.With(options_.ts_attr, ts.MoveValue());
    } else if (idx >= 1 && idx <= num_groups_) {
      out = out.With(options_.group_attrs[static_cast<size_t>(idx - 1)],
                     f.attr(idx));
    } else {
      return std::nullopt;  // constraint on the computed aggregate
    }
  }
  if (out.IsAllWildcard()) return std::nullopt;
  return out;
}

Status WindowAggregate::HandleAssumed(const PunctPattern& f) {
  std::vector<int> group_idx;
  group_idx.reserve(static_cast<size_t>(num_groups_) + 1);
  for (int i = 0; i <= num_groups_; ++i) group_idx.push_back(i);
  AggFeedbackDecision d = DecideAggFeedback(
      f, group_idx, {agg_out_idx_}, monotonicity());
  if (d.null_response) {
    ++stats_.feedback_ignored;
    return Status::OK();
  }

  // The output guard is both the prescribed action for the
  // non-exploitable rows and a cheap backstop for the others.
  output_guards_.Add(f);
  if (options_.feedback_policy == FeedbackPolicy::kOutputGuardOnly) {
    return Status::OK();  // Scheme F1: nothing beyond the guard
  }

  std::vector<Key> purged;
  if (d.purge_groups) {
    // Table 1 row 1: purge matching groups and keep them from
    // re-forming via the group guard.
    for (auto it = state_->begin(); it != state_->end();) {
      if (f.Matches(MakeProbe(it->first))) {
        it = state_->erase(it);
        ++stats_.state_purged;
      } else {
        ++it;
      }
    }
    group_guards_.Add(f);
  }
  if (d.purge_by_partial) {
    // Table 1 row 3 / §3.5 MAX: purge entries whose partial already
    // guarantees a matching final; tombstone so they cannot re-form.
    for (auto it = state_->begin(); it != state_->end();) {
      if (f.Matches(MakeOutput(it->first, it->second))) {
        tombstones_->insert(it->first);
        if (purged.size() < kMaxPropagations) {
          purged.push_back(it->first);
        }
        it = state_->erase(it);
        ++stats_.state_purged;
      } else {
        ++it;
      }
    }
    purge_partial_patterns_.push_back(f);
  }

  if (!PolicyAtLeast(options_.feedback_policy,
                     FeedbackPolicy::kExploitAndPropagate)) {
    return Status::OK();
  }
  if (d.propagate_groups) {
    std::optional<PunctPattern> mapped = MapToInput(f);
    if (mapped.has_value()) {
      RelayFeedback(0, FeedbackPunctuation::Assumed(*mapped));
      ctx()->PurgeInput(0, *mapped);
    }
  }
  if (d.purge_by_partial && options_.window.tumbling()) {
    // "Propagate G in terms of the input schema": each purged
    // (window, group) becomes ¬[ts∈window-range, group=..] upstream.
    // Only sound for tumbling windows — a sliding-window tuple feeds
    // neighbours that were not purged (Example 2).
    for (const Key& key : purged) {
      PunctPattern up =
          PunctPattern::AllWildcard(input_schema(0)->num_fields());
      up = up.With(options_.ts_attr,
                   AttrPattern::Range(
                       Value::Timestamp(options_.window.WindowStart(key.wid)),
                       Value::Timestamp(
                           options_.window.WindowEnd(key.wid) - 1)));
      for (int gi = 0; gi < num_groups_; ++gi) {
        up = up.With(options_.group_attrs[static_cast<size_t>(gi)],
                     AttrPattern::Eq(key.groups[static_cast<size_t>(gi)]));
      }
      RelayFeedback(0, FeedbackPunctuation::Assumed(up));
    }
  }
  return Status::OK();
}

Status WindowAggregate::HandleDesired(const FeedbackPunctuation& fb) {
  std::optional<PunctPattern> mapped = MapToInput(fb.pattern());
  if (mapped.has_value()) {
    ctx()->PrioritizeInput(0, *mapped);
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      FeedbackPunctuation up(fb.intent(), *mapped);
      up.set_origin_op(fb.origin_op());
      RelayFeedback(0, std::move(up));
    }
  } else {
    ++stats_.feedback_ignored;
  }
  return Status::OK();
}

Status WindowAggregate::HandleDemanded(const FeedbackPunctuation& fb) {
  // §3.4: "a demanded punctuation may cause some aggregates to unblock
  // and produce partial results" — emit current partials for matching
  // open windows right now (approximate results, by design), then ask
  // upstream to hurry the inputs along.
  std::vector<const Key*> matches;
  for (const auto& [key, p] : *state_) {
    Tuple out = MakeOutput(key, p);
    if (fb.pattern().arity() == out.size() && fb.pattern().Matches(out)) {
      matches.push_back(&key);
    } else if (fb.pattern().arity() == out.size()) {
      // Also match on the key alone (wildcard agg): a demanded subset
      // is usually stated over windows/groups, not aggregate values.
      if (fb.pattern().Matches(MakeProbe(key))) matches.push_back(&key);
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const Key* a, const Key* b) { return a->wid < b->wid; });
  for (const Key* key : matches) {
    Tuple out = MakeOutput(*key, state_->at(*key));
    ++partials_emitted_;
    Emit(0, std::move(out));
  }
  return HandleDesired(fb);
}

Status WindowAggregate::ProcessFeedback(int,
                                        const FeedbackPunctuation& fb) {
  if (options_.feedback_policy == FeedbackPolicy::kIgnore ||
      fb.pattern().arity() != output_schema(0)->num_fields()) {
    ++stats_.feedback_ignored;
    return Status::OK();
  }
  switch (fb.intent()) {
    case FeedbackIntent::kAssumed:
      return HandleAssumed(fb.pattern());
    case FeedbackIntent::kDesired:
      return HandleDesired(fb);
    case FeedbackIntent::kDemanded:
      return HandleDemanded(fb);
  }
  return Status::OK();
}

size_t WindowAggregate::state_size() const { return state_->size(); }
size_t WindowAggregate::tombstone_count() const {
  return tombstones_->size();
}

namespace {

// Serialized-key canonical order for the unordered state containers:
// keys hold Values (group attrs), so "sort by serialized bytes" is
// the simplest total order that agrees across processes.
std::string KeyBytes(int64_t wid, const std::vector<Value>& groups) {
  SnapshotWriter kw;
  kw.WriteI64(wid);
  kw.WriteU32(static_cast<uint32_t>(groups.size()));
  for (const Value& v : groups) kw.WriteValue(v);
  return kw.Release();
}

}  // namespace

Status WindowAggregate::SnapshotState(SnapshotWriter* w) {
  NSTREAM_RETURN_NOT_OK(Operator::SnapshotState(w));

  std::vector<std::pair<std::string, const Partial*>> entries;
  entries.reserve(state_->size());
  for (const auto& [key, partial] : *state_) {
    entries.emplace_back(KeyBytes(key.wid, key.groups), &partial);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->WriteU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [bytes, partial] : entries) {
    w->WriteSection(bytes);
    w->WriteI64(partial->count);
    w->WriteDouble(partial->sum);
    w->WriteDouble(partial->max);
    w->WriteDouble(partial->min);
  }

  std::vector<std::string> tombs;
  tombs.reserve(tombstones_->size());
  for (const Key& key : *tombstones_) {
    tombs.push_back(KeyBytes(key.wid, key.groups));
  }
  std::sort(tombs.begin(), tombs.end());
  w->WriteU32(static_cast<uint32_t>(tombs.size()));
  for (const std::string& bytes : tombs) w->WriteSection(bytes);

  w->WriteGuardSet(group_guards_);
  w->WriteGuardSet(output_guards_);
  w->WriteU32(static_cast<uint32_t>(purge_partial_patterns_.size()));
  for (const PunctPattern& p : purge_partial_patterns_) {
    w->WritePattern(p);
  }
  w->WriteI64(closed_through_);
  w->WriteU64(work_checksum_);
  w->WriteU64(partials_emitted_);
  w->WriteU64(updates_applied_);
  w->WriteU64(updates_skipped_);
  WritePageElements(w, out_staged_);
  return Status::OK();
}

Status WindowAggregate::RestoreState(SnapshotReader* r) {
  NSTREAM_RETURN_NOT_OK(Operator::RestoreState(r));

  auto read_key = [](SnapshotReader* kr, Key* key) -> Status {
    NSTREAM_RETURN_NOT_OK(kr->ReadI64(&key->wid));
    uint32_t ngroups = 0;
    NSTREAM_RETURN_NOT_OK(kr->ReadCount(&ngroups, 1, "aggregate group"));
    key->groups.resize(ngroups);
    for (uint32_t g = 0; g < ngroups; ++g) {
      NSTREAM_RETURN_NOT_OK(kr->ReadValue(&key->groups[g]));
    }
    return Status::OK();
  };

  state_->clear();
  uint32_t nstate = 0;
  // An entry is at least its key section's length, a count and three
  // doubles.
  NSTREAM_RETURN_NOT_OK(r->ReadCount(&nstate, sizeof(uint32_t) + 4 * 8,
                                     "aggregate state"));
  state_->reserve(nstate);
  for (uint32_t i = 0; i < nstate; ++i) {
    std::string_view key_bytes;
    NSTREAM_RETURN_NOT_OK(r->ReadSection(&key_bytes));
    SnapshotReader kr(key_bytes);
    Key key;
    NSTREAM_RETURN_NOT_OK(read_key(&kr, &key));
    Partial partial;
    NSTREAM_RETURN_NOT_OK(r->ReadI64(&partial.count));
    NSTREAM_RETURN_NOT_OK(r->ReadDouble(&partial.sum));
    NSTREAM_RETURN_NOT_OK(r->ReadDouble(&partial.max));
    NSTREAM_RETURN_NOT_OK(r->ReadDouble(&partial.min));
    (*state_)[std::move(key)] = partial;
  }

  tombstones_->clear();
  uint32_t ntombs = 0;
  NSTREAM_RETURN_NOT_OK(
      r->ReadCount(&ntombs, sizeof(uint32_t), "aggregate tombstone"));
  tombstones_->reserve(ntombs);
  for (uint32_t i = 0; i < ntombs; ++i) {
    std::string_view key_bytes;
    NSTREAM_RETURN_NOT_OK(r->ReadSection(&key_bytes));
    SnapshotReader kr(key_bytes);
    Key key;
    NSTREAM_RETURN_NOT_OK(read_key(&kr, &key));
    tombstones_->insert(std::move(key));
  }

  NSTREAM_RETURN_NOT_OK(r->ReadGuardSet(&group_guards_));
  NSTREAM_RETURN_NOT_OK(r->ReadGuardSet(&output_guards_));
  purge_partial_patterns_.clear();
  uint32_t npurge = 0;
  NSTREAM_RETURN_NOT_OK(
      r->ReadCount(&npurge, sizeof(uint32_t), "aggregate purge pattern"));
  purge_partial_patterns_.resize(npurge);
  for (uint32_t i = 0; i < npurge; ++i) {
    NSTREAM_RETURN_NOT_OK(r->ReadPattern(&purge_partial_patterns_[i]));
  }
  NSTREAM_RETURN_NOT_OK(r->ReadI64(&closed_through_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&work_checksum_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&partials_emitted_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&updates_applied_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&updates_skipped_));
  out_staged_ = Page();
  NSTREAM_RETURN_NOT_OK(ReadPageInto(r, &out_staged_));
  return Status::OK();
}

}  // namespace nstream
