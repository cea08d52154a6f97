#include "ops/symmetric_hash_join.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <iterator>

#include "core/propagation.h"
#include "ops/shard_routing.h"
#include "punct/compiled_pattern.h"
#include "recovery/snapshot.h"

namespace nstream {
namespace {

/// A closed interval [*lo, *hi] holding every timestamp `ap` admits.
/// Only Eq, Lt, Le, Gt, Ge and Range over int64 or timestamp operands
/// give one (Lt and Gt widened to Le and Ge); false for anything else.
bool TimestampInterval(const AttrPattern& ap, int64_t* lo, int64_t* hi) {
  // Any, IsNull and NotNull carry a NULL operand.
  if (!ap.operand().is_int64_rep()) return false;
  const int64_t x = ap.operand().int64_value();
  *lo = INT64_MIN;
  *hi = INT64_MAX;
  switch (ap.op()) {
    case PatternOp::kEq:
      *lo = *hi = x;
      return true;
    case PatternOp::kLt:
    case PatternOp::kLe:
      *hi = x;
      return true;
    case PatternOp::kGt:
    case PatternOp::kGe:
      *lo = x;
      return true;
    case PatternOp::kRange:
      if (!ap.hi().is_int64_rep()) return false;
      *lo = x;
      *hi = ap.hi().int64_value();
      return true;
    default:
      return false;
  }
}

}  // namespace

SymmetricHashJoin::SymmetricHashJoin(std::string name, JoinOptions options)
    : Operator(std::move(name), 2, 1), options_(std::move(options)) {}

Status SymmetricHashJoin::InferSchemas() {
  const Schema& left = *input_schema(0);
  const Schema& right = *input_schema(1);
  left_arity_ = left.num_fields();
  right_arity_ = right.num_fields();
  row_scratch_[0] = Tuple(std::vector<Value>(left.fields().size()));
  row_scratch_[1] = Tuple(std::vector<Value>(right.fields().size()));
  if (options_.left_keys.size() != options_.right_keys.size()) {
    return Status::InvalidArgument(name() + ": key arity mismatch");
  }
  if (left_arity_ > kMaxArity || right_arity_ > kMaxArity) {
    return Status::InvalidArgument(
        name() + ": a stored row of more than " +
        std::to_string(kMaxArity) + " values would not fit an arena chunk");
  }
  if (options_.shard_count < 1 || options_.shard_index < 0 ||
      options_.shard_index >= options_.shard_count) {
    return Status::InvalidArgument(
        name() + ": shard_index must lie in [0, shard_count)");
  }
  if (options_.shard_count > 1 &&
      (options_.left_keys.empty() || options_.right_keys.empty())) {
    return Status::InvalidArgument(
        name() + ": sharded execution requires equi-join keys");
  }
  if (options_.window_join &&
      (options_.left_ts < 0 || options_.right_ts < 0)) {
    return Status::InvalidArgument(
        name() + ": window_join requires both timestamp attributes");
  }
  if (options_.window_join && !options_.window.tumbling()) {
    return Status::Unsupported(
        name() + ": only tumbling-window joins are supported");
  }
  if (options_.thrifty && !options_.window_join) {
    return Status::InvalidArgument(
        name() + ": thrifty mode requires window_join");
  }
  if (options_.thrifty && options_.left_outer &&
      options_.thrifty_probe_input == 1) {
    return Status::InvalidArgument(
        name() +
        ": thrifty feedback from the right probe would suppress left "
        "tuples that a left-outer join must still emit");
  }

  // Output = all left attrs, then right attrs minus the join keys.
  std::vector<Field> out = left.fields();
  right_nonkey_.clear();
  for (int i = 0; i < right_arity_; ++i) {
    bool is_key = false;
    for (int k : options_.right_keys) {
      if (k == i) is_key = true;
    }
    if (!is_key) {
      right_nonkey_.push_back(i);
      out.push_back(right.field(i));
    }
  }
  SetOutputSchema(0, Schema::Make(std::move(out)));

  // SchemaMap (§4.2): left attrs map to input 0; join keys also map to
  // input 1; appended right attrs map to input 1.
  map_ = SchemaMap(2, output_schema(0)->num_fields());
  for (int i = 0; i < left_arity_; ++i) {
    NSTREAM_RETURN_NOT_OK(map_.Map(i, 0, i));
    for (size_t k = 0; k < options_.left_keys.size(); ++k) {
      if (options_.left_keys[k] == i) {
        NSTREAM_RETURN_NOT_OK(map_.Map(i, 1, options_.right_keys[k]));
      }
    }
  }
  for (size_t m = 0; m < right_nonkey_.size(); ++m) {
    NSTREAM_RETURN_NOT_OK(map_.Map(left_arity_ + static_cast<int>(m), 1,
                                   right_nonkey_[m]));
  }
  return Status::OK();
}

int64_t SymmetricHashJoin::WidOf(const Tuple& t, int port) const {
  if (!options_.window_join) return 0;
  int ts_attr = port == 0 ? options_.left_ts : options_.right_ts;
  Result<int64_t> ts = t.value(ts_attr).AsInt64();
  if (!ts.ok()) return 0;
  // Tumbling: exactly one window.
  return WindowSpec::FloorDiv(ts.value(), options_.window.slide_ms);
}

uint64_t SymmetricHashJoin::KeyHash(const Tuple& t, int port,
                                    int64_t wid) const {
  if (options_.key_hash_override) {
    return options_.key_hash_override(t, port, wid);
  }
  const std::vector<int>& keys =
      port == 0 ? options_.left_keys : options_.right_keys;
  // Mixing the window id keeps the same key in adjacent windows in
  // different buckets.
  return MixWidHash(static_cast<uint64_t>(t.HashSubset(keys)), wid);
}

// ---- WindowTable ----

SymmetricHashJoin::WindowTable::WindowTable(int arity)
    : arity_(arity),
      rows_(std::make_unique<TupleArena>()),
      bytes_(std::make_unique<TupleArena>()) {
  assert(arity <= kMaxArity);
}

void SymmetricHashJoin::WindowTable::SetLayout(std::vector<Slot> slots) {
  assert(slots.size() == static_cast<size_t>(arity_) + kValueSlot);
  uint32_t at = sizeof(Row);
  for (Slot& s : slots) {
    s.at = static_cast<uint16_t>(at);
    at += s.narrow ? sizeof(int32_t) : sizeof(uint64_t);
  }
  slots_ = std::move(slots);
  stride_ = at;
  per_chunk_ = static_cast<uint32_t>(TupleArena::kChunkBytes / stride_);
  slot_bits_ = static_cast<uint32_t>(std::bit_width(per_chunk_ - 1));
  slot_mask_ = (uint32_t{1} << slot_bits_) - 1;
}

void SymmetricHashJoin::WindowTable::EncodeSlots(const Tuple& t, char* row,
                                                 bool* own_tags,
                                                 std::vector<Slot>* wider) {
  const auto widen = [&](size_t k) {
    if (wider->empty()) *wider = slots_;
    (*wider)[k].narrow = false;
  };
  const auto put = [&](size_t k, int64_t v) {
    const Slot& s = slots_[k];
    int32_t off = 0;
    if (!s.narrow) {
      std::memcpy(row + s.at, &v, sizeof(v));
    } else if (!__builtin_sub_overflow(v, s.base, &off)) {
      // In infinite precision: any offset outside int32 is caught.
      std::memcpy(row + s.at, &off, sizeof(off));
    } else {
      widen(k);
    }
  };
  put(kIdSlot, t.id());
  put(kArrivalSlot, t.arrival_ms());
  for (size_t i = 0; i + kValueSlot < slots_.size(); ++i) {
    const size_t k = kValueSlot + i;
    const Value& v = t.value(i);
    *own_tags |= v.type() != slots_[k].type;
    if (!slots_[k].narrow) {
      const uint64_t payload = Encode(v);
      std::memcpy(row + slots_[k].at, &payload, sizeof(payload));
    } else if (v.type() != slots_[k].type) {
      widen(k);
    } else {
      put(k, v.unchecked_int64());
    }
  }
}

uint32_t SymmetricHashJoin::WindowTable::Find(uint32_t fp) const {
  if (heads_.empty()) return kNoRow;
  uint32_t i = heads_[BucketOf(fp)];
  while (i != kNoRow && row(i)->fp != fp) i = row(i)->next();
  return i;
}

void SymmetricHashJoin::WindowTable::Link(uint32_t name, Row* r) {
  r->link |= kNoRow;  // the bucket's new tail
  const size_t b = BucketOf(r->fp);
  if (heads_[b] == kNoRow) {
    heads_[b] = name;
  } else {
    Row* tail = row(tails_[b]);
    tail->link = (tail->link & ~kNoRow) | name;
  }
  tails_[b] = name;
}

void SymmetricHashJoin::WindowTable::Rehash(size_t buckets) {
  heads_.assign(buckets, kNoRow);
  tails_.assign(buckets, kNoRow);
  shift_ = 32 - std::countr_zero(buckets);
  // Relinking in insertion order keeps every bucket list in it.
  ForEachRow([this](uint32_t name, Row* r) {
    if (r->live()) Link(name, r);
  });
}

uint64_t SymmetricHashJoin::WindowTable::Encode(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return v.bool_value() ? 1 : 0;
    case ValueType::kInt64:
    case ValueType::kTimestamp:
      return static_cast<uint64_t>(v.int64_value());
    case ValueType::kDouble:
      return std::bit_cast<uint64_t>(v.double_value());
    case ValueType::kString: {
      const std::string_view s = v.string_view();
      const auto len = static_cast<uint32_t>(s.size());
      char* p = static_cast<char*>(
          bytes_->Allocate(sizeof(len) + s.size(), alignof(uint32_t)));
      std::memcpy(p, &len, sizeof(len));
      if (len != 0) std::memcpy(p + sizeof(len), s.data(), len);
      return reinterpret_cast<uintptr_t>(p);
    }
  }
  return 0;
}

Status SymmetricHashJoin::WindowTable::Append(uint32_t fp, const Tuple& t,
                                              uint32_t flags) {
  assert(t.size() == arity_);
  const auto n = static_cast<size_t>(arity_);
  if (slots_.empty()) {
    // The first row fixes the layout: its types, and a narrow slot,
    // based at its own value, for its id, its arrival and each of its
    // int64 and timestamp values.
    std::vector<Slot> slots(n + kValueSlot);
    slots[kIdSlot] = {t.id(), 0, ValueType::kInt64, true};
    slots[kArrivalSlot] = {t.arrival_ms(), 0, ValueType::kTimestamp, true};
    for (size_t i = 0; i < n; ++i) {
      const Value& v = t.value(i);
      const bool narrow = v.is_int64_rep();
      slots[kValueSlot + i] = {narrow ? v.int64_value() : 0, 0, v.type(),
                               narrow};
    }
    SetLayout(std::move(slots));
  }
  const uint32_t name = next_name_;
  if (name >= kNoRow) {
    return Status::ResourceExhausted(
        "join window table is full: 28-bit row names");
  }
  const auto advance = [this, name] {
    next_name_ = (name & slot_mask_) + 1 == per_chunk_
                     ? ((name >> slot_bits_) + 1) << slot_bits_
                     : name + 1;
    ++count_;
  };
  // The row arena holds nothing but rows, so its bump cursor puts this
  // one exactly at its name's chunk and slot.
  void* mem = rows_->Allocate(stride_, alignof(Row));
  assert(mem == row(name));
  bool own_tags = false;
  std::vector<Slot> wider;
  EncodeSlots(t, static_cast<char*>(mem), &own_tags, &wider);
  if (!wider.empty()) {
    // Some narrow slot cannot hold this row's value. The row's place
    // stays behind as a dead row; the live rows are re-encoded once,
    // with every such slot wide, and the row is appended to them.
    new (mem) Row{fp, kNoRow};
    advance();
    Tuple scratch{std::vector<Value>(n)};
    NSTREAM_RETURN_NOT_OK(Compact(std::move(wider), &scratch));
    return Append(fp, t, flags);  // fits now
  }
  Row* r = new (mem) Row{fp, flags | kLive | (own_tags ? kOwnTags : 0u)};
  if (own_tags) {
    auto* tags = bytes_->AllocateSpan<ValueType>(n);
    for (size_t i = 0; i < n; ++i) tags[i] = t.value(i).type();
    own_tags_.push_back({name, tags});
  }
  advance();
  ++live_;
  if (count_ > heads_.size()) {
    Rehash(heads_.empty() ? 16 : heads_.size() * 2);  // links r too
  } else {
    Link(name, r);
  }
  return Status::OK();
}

void SymmetricHashJoin::WindowTable::Decode(uint32_t name, Tuple* out) const {
  assert(out->size() == arity_);
  const Row* r = row(name);
  const Slot* values = slots_.data() + kValueSlot;
  const ValueType* own_tags = nullptr;
  if (r->own_tags()) {
    own_tags = std::lower_bound(own_tags_.begin(), own_tags_.end(), name,
                                [](const OwnTags& o, uint32_t n) {
                                  return o.name < n;
                                })
                   ->tags;
  }
  for (int i = 0; i < arity_; ++i) {
    Value* v = &out->mutable_value(i);
    const ValueType type =
        own_tags != nullptr ? own_tags[i] : values[i].type;
    const uint64_t payload = Load(r, values[i]);
    if (type != ValueType::kString) {
      new (v) Value(Value::FromPayload(type, payload));
      continue;
    }
    const auto* p = reinterpret_cast<const char*>(payload);
    uint32_t len = 0;
    std::memcpy(&len, p, sizeof(len));
    const std::string_view bytes(p + sizeof(len), len);
    new (v) Value(len <= Value::kInlineCap ? Value::OwnedString(bytes)
                                           : Value::BorrowedString(bytes));
  }
  out->set_id(static_cast<int64_t>(Load(r, slots_[kIdSlot])));
  out->set_arrival_ms(static_cast<TimeMs>(Load(r, slots_[kArrivalSlot])));
}

template <typename Match>
size_t SymmetricHashJoin::WindowTable::Purge(Match&& match, Tuple* scratch) {
  // Insertion order is arena order, so the walk reads memory in
  // sequence; relinking afterwards keeps every bucket list in it.
  size_t purged = 0;
  ForEachRow([&](uint32_t name, Row* r) {
    if (!r->live()) return;
    Decode(name, scratch);
    if (match(*scratch)) {
      r->link &= ~kLive;
      ++purged;
    }
  });
  if (purged == 0) return 0;
  live_ -= purged;
  // A non-windowed join never closes its one table: without this,
  // repeated feedback would keep purged rows' memory for the life of
  // the query.
  if (live_ > 0 && (count_ - live_) * 2 > count_) {
    // Fewer rows than this table holds, at its stride: never full.
    const Status st = Compact(slots_, scratch);
    assert(st.ok());
    (void)st;
  } else {
    Rehash(heads_.size());
  }
  return purged;
}

Status SymmetricHashJoin::WindowTable::Compact(std::vector<Slot> slots,
                                               Tuple* scratch) {
  WindowTable fresh(arity_);
  fresh.SetLayout(std::move(slots));
  Status st;
  ForEachRow([&](uint32_t name, const Row* r) {
    if (!r->live() || !st.ok()) return;
    Decode(name, scratch);
    st = fresh.Append(r->fp, *scratch, r->link & (kMatched | kGated));
  });
  NSTREAM_RETURN_NOT_OK(st);
  *this = std::move(fresh);  // the old arenas' chunks go back
  return Status::OK();
}

size_t SymmetricHashJoin::WindowTable::bytes() const {
  return rows_->bytes_used() + bytes_->bytes_used() +
         (heads_.capacity() + tails_.capacity()) * sizeof(uint32_t) +
         own_tags_.capacity() * sizeof(OwnTags);
}

ColumnarBlock* SymmetricHashJoin::StagedColumnar() {
  if (out_staged_.is_columnar()) return out_staged_.columnar();
  // A staged page that holds rows (restored, or laid out as rows by a
  // snapshot) goes first.
  FlushOutput();
  ColumnarBlock* blk = out_staged_.BeginColumnar(
      static_cast<uint32_t>(left_arity_ +
                            static_cast<int>(right_nonkey_.size())),
      static_cast<uint32_t>(options_.output_page_size));
  staged_block_bytes_ = out_staged_.arena()->bytes_used();
  return blk;
}

void SymmetricHashJoin::EmitJoinedPair(const Tuple& left,
                                       const Tuple* right) {
  // Columnar result construction: one flat slot store per attribute
  // into contiguous column arrays — no per-result span setup, no
  // StreamElement, no intermediate row tuple.
  ColumnarBlock* blk = StagedColumnar();
  const uint32_t r = blk->AddRow(left.id(), /*arrival=*/-1);
  uint32_t c = 0;
  for (int i = 0; i < left.size(); ++i) blk->Set(c++, r, left.value(i));
  if (right != nullptr) {
    for (int i : right_nonkey_) blk->Set(c++, r, right->value(i));
  } else {
    for (size_t k = 0; k < right_nonkey_.size(); ++k) {
      blk->Set(c++, r, Value::Null());
    }
  }
  // Guard-empty fast path: the common (no-feedback) pipeline pays one
  // branch here, not a call per result. The guard matches the OUTPUT
  // row, so it tests the staged row in place.
  if (!output_guards_.empty() && output_guards_.Blocks(*blk, r)) {
    blk->PopRow();
    ++stats_.output_guard_drops;
    // The string bytes of blocked rows stay in the staging arena (see
    // FlushOutput). Reset an empty block once a chunk of them has piled
    // up: under backlog the task may not park for a long time.
    if (blk->rows() == 0 && out_staged_.arena()->bytes_used() >=
                                staged_block_bytes_ + TupleArena::kChunkBytes) {
      out_staged_ = Page();
    }
    return;
  }
  ++joined_count_;
  // Stage rather than emit: one queue hop per output page. Flushed
  // when full, before any punctuation emission, at EOS, and when the
  // executor parks the task (FlushStaged) — so no result is stranded
  // across scheduler wakes. Callers driving ProcessTuple/ProcessPage
  // directly (unit harnesses) see results on their context only after
  // one of those flush points.
  if (static_cast<int>(out_staged_.size()) >= options_.output_page_size) {
    FlushOutput();
  }
}

void SymmetricHashJoin::FlushOutput() {
  if (out_staged_.empty()) {
    // Guard-blocked results were staged before the guard dropped them
    // (it matches the OUTPUT row), so their string bytes stay in the
    // staging arena. If every result since the last flush was blocked,
    // the page is empty but holds those dead bytes — reset so a
    // long-lived guard cannot grow it without bound (chunks return to
    // the pool).
    if (out_staged_.arena_if_created() != nullptr) out_staged_ = Page();
    return;
  }
  EmitPage(0, std::move(out_staged_));
  out_staged_ = Page();
}

Status SymmetricHashJoin::ProcessPage(int port, Page&& page,
                                      TimeMs* tick) {
  if (!options_.page_batched_probe) {
    return Operator::ProcessPage(port, std::move(page), tick);
  }
  if (page.is_columnar()) {
    return ProcessColumnarPage(port, std::move(page), tick);
  }
  // Batched walk: runs of consecutive tuples share one probe memo;
  // punctuation and EOS keep their element positions as run
  // boundaries, so watermark/guard state never changes mid-run and no
  // result ever overtakes a punctuation (FlushOutput inside
  // ProcessPunctuation precedes the punctuation emission).
  const std::vector<StreamElement>& elems = page.elements();
  size_t i = 0;
  while (i < elems.size()) {
    if (elems[i].is_tuple()) {
      size_t j = i + 1;
      while (j < elems.size() && elems[j].is_tuple()) ++j;
      NSTREAM_RETURN_NOT_OK(ProcessTupleRun(port, elems, i, j, tick));
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

Status SymmetricHashJoin::FlushStaged() {
  FlushOutput();
  return Status::OK();
}

bool SymmetricHashJoin::Admit(int port, const Tuple& tuple, int64_t wid) {
  if (input_guards_[static_cast<size_t>(port)].Blocks(tuple)) {
    ++stats_.input_guard_drops;
    return false;
  }
#ifndef NDEBUG
  // Shard-routing tripwire: a mis-routed tuple would silently miss its
  // join partner, so verify the Exchange's placement decision here.
  if (options_.shard_count > 1) {
    const std::vector<int>& route_keys =
        port == 0 ? options_.left_keys : options_.right_keys;
    assert(ShardOfRoutingHash(ShardRoutingHash(tuple, route_keys),
                              options_.shard_count) ==
           options_.shard_index);
  }
#endif
  // Straggler past its window's punctuation: nothing to join with.
  // The watermark cannot advance mid-run (punctuation bounds a run),
  // so every walk makes the same decision.
  return !(options_.window_join && wid <= watermark_[port]);
}

Status SymmetricHashJoin::ProbeAndStore(int port, const Tuple& tuple,
                                        int64_t wid, uint64_t key,
                                        ProbeMemo* memo) {
  // Adaptive gate: a failed left tuple neither probes nor is probed;
  // it still emits as an outer row at window close. Its failure is the
  // discovery of a processing opportunity on the right branch.
  bool gated = false;
  if (port == 0 && options_.left_gate && !options_.left_gate(tuple)) {
    gated = true;
    if (options_.gate_feedback_horizon > 0 && options_.window_join) {
      SendGateFeedback(tuple, wid, key);
    }
  }

  if (!memo->have_wid || memo->wid != wid) {
    memo->have_wid = true;
    memo->wid = wid;
    memo->probe = FindTable(1 - port, wid);
    memo->own = nullptr;
    memo->have_key = false;
  }
  if (!memo->have_key || memo->key != key) {
    memo->have_key = true;
    memo->key = key;
    memo->fp = WindowTable::Fingerprint(key);
    memo->head =
        memo->probe != nullptr ? memo->probe->Find(memo->fp) : kNoRow;
  }

  // Probe the other side's rows with this fingerprint (every one
  // shares the window). Equal fingerprints are not enough: each
  // candidate must pass value equality on the key subset.
  bool matched = false;
  if (!gated) {
    const std::vector<int>& my_keys =
        port == 0 ? options_.left_keys : options_.right_keys;
    const std::vector<int>& other_keys =
        port == 0 ? options_.right_keys : options_.left_keys;
    Tuple& stored = row_scratch_[1 - port];
    for (uint32_t i = memo->head; i != kNoRow;) {
      const uint32_t name = i;
      Row* row = memo->probe->row(name);
      i = row->next();
      if (row->fp != memo->fp) continue;        // another key's bucket mate
      if (port == 1 && row->gated()) continue;  // right probe skips gated
      memo->probe->Decode(name, &stored);
      if (!tuple.EqualsSubset(stored, my_keys, other_keys)) {
        continue;  // hash collision: not actually the same key
      }
      row->link |= kMatched;
      matched = true;
      if (port == 0) {
        EmitJoinedPair(tuple, &stored);
      } else {
        EmitJoinedPair(stored, &tuple);
      }
    }
  }

  if (options_.window_join) {
    ++window_counts_[port][wid];
    if (wid < min_seen_wid_[port]) min_seen_wid_[port] = wid;
    if (options_.impatient && port == options_.impatient_data_input) {
      MaybeImpatient(tuple, port, wid, key);
    }
  }
  // The other input has closed this window, so no later tuple probes
  // this one (Admit drops the other input's stragglers): store nothing.
  // A left-outer join emits an unmatched left tuple's outer row now;
  // stored, it would wait for the other input's next punctuation and
  // follow the output punctuation that covers it.
  if (options_.window_join && wid <= watermark_[1 - port]) {
    if (options_.left_outer && port == 0 && !matched) {
      EmitJoinedPair(tuple, /*right=*/nullptr);
    }
    return Status::OK();
  }
  if (memo->own == nullptr) memo->own = &TableFor(port, wid);
  return memo->own->Insert(key, tuple, matched, gated);
}

Status SymmetricHashJoin::ProcessTupleRun(
    int port, const std::vector<StreamElement>& elems, size_t begin,
    size_t end, TimeMs* tick) {
  ProbeMemo memo;
  for (size_t e = begin; e < end; ++e) {
    if (tick) ++*tick;
    ++stats_.tuples_in;
    const Tuple& tuple = elems[e].tuple();
    const int64_t wid = WidOf(tuple, port);
    if (!Admit(port, tuple, wid)) continue;
    NSTREAM_RETURN_NOT_OK(
        ProbeAndStore(port, tuple, wid, KeyHash(tuple, port, wid), &memo));
  }
  return Status::OK();
}

Status SymmetricHashJoin::ProcessColumnarPage(int port, Page&& page,
                                              TimeMs* tick) {
  ColumnarBlock* b = page.columnar();
  const uint32_t n = b->size();
  if (n == 0) return Status::OK();
  const std::vector<int>& my_keys =
      port == 0 ? options_.left_keys : options_.right_keys;

  Tuple scratch = b->MakeRowScratch();

  // Window ids: one contiguous sweep over the timestamp column. The
  // uniform-int64 column class (the norm for timestamps) hoists the
  // per-value dispatch out of the loop entirely.
  wid_scratch_.assign(n, 0);
  if (options_.window_join) {
    const int ts_attr = port == 0 ? options_.left_ts : options_.right_ts;
    const Value* col = b->column(ts_attr);
    const int64_t slide = options_.window.slide_ms;
    if (b->column_class(ts_attr) == ColumnClass::kInt64) {
      for (uint32_t i = 0; i < n; ++i) {
        wid_scratch_[i] = WindowSpec::FloorDiv(
            col[b->row_at(i)].unchecked_int64(), slide);
      }
    } else {
      for (uint32_t i = 0; i < n; ++i) {
        Result<int64_t> ts = col[b->row_at(i)].AsInt64();
        wid_scratch_[i] =
            ts.ok() ? WindowSpec::FloorDiv(ts.value(), slide) : 0;
      }
    }
  }

  // Key hashes, column-outer row-inner: per key attribute one pass
  // over its contiguous column, accumulating exactly the FNV chain
  // Tuple::HashSubset computes row-wise, then the wid mix. The
  // override seam (collision-forcing tests) evaluates per row on the
  // scratch view instead.
  if (options_.key_hash_override) {
    hash_scratch_.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      b->FillRow(b->row_at(i), &scratch);
      hash_scratch_[i] =
          options_.key_hash_override(scratch, port, wid_scratch_[i]);
    }
  } else {
    hash_scratch_.assign(n, 0xcbf29ce484222325ULL);
    for (int k : my_keys) {
      const Value* col = b->column(k);
      for (uint32_t i = 0; i < n; ++i) {
        hash_scratch_[i] ^= col[b->row_at(i)].Hash();
        hash_scratch_[i] *= 0x100000001b3ULL;
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      hash_scratch_[i] = MixWidHash(hash_scratch_[i], wid_scratch_[i]);
    }
  }

  // The memoized walk of ProcessTupleRun, reading rows through the
  // reused aliased scratch view. Columnar pages are tuples-only, so
  // the whole page is one run. Inserts copy the row's values (and
  // string bytes) into the window arena, so nothing stored borrows
  // this page.
  ProbeMemo memo;
  for (uint32_t i = 0; i < n; ++i) {
    if (tick) ++*tick;
    ++stats_.tuples_in;
    b->FillRow(b->row_at(i), &scratch);
    if (!Admit(port, scratch, wid_scratch_[i])) continue;
    NSTREAM_RETURN_NOT_OK(ProbeAndStore(port, scratch, wid_scratch_[i],
                                        hash_scratch_[i], &memo));
  }
  return Status::OK();
}

Status SymmetricHashJoin::ProcessTuple(int port, const Tuple& tuple) {
  const int64_t wid = WidOf(tuple, port);
  if (!Admit(port, tuple, wid)) return Status::OK();
  ProbeMemo memo;
  return ProbeAndStore(port, tuple, wid, KeyHash(tuple, port, wid), &memo);
}

SymmetricHashJoin::WindowTable* SymmetricHashJoin::FindTable(int side,
                                                             int64_t wid) {
  auto it = tables_[side].find(wid);
  return it == tables_[side].end() ? nullptr : &it->second;
}

SymmetricHashJoin::WindowTable& SymmetricHashJoin::TableFor(int side,
                                                            int64_t wid) {
  return tables_[side]
      .try_emplace(wid, side == 0 ? left_arity_ : right_arity_)
      .first->second;
}

void SymmetricHashJoin::MaybeImpatient(const Tuple& t, int port,
                                       int64_t wid, uint64_t key) {
  if (!impatient_requested_.insert(key).second) return;

  // Build a desired pattern over the OTHER input's schema: same join
  // keys, timestamps within this window.
  int other = 1 - port;
  const std::vector<int>& my_keys =
      port == 0 ? options_.left_keys : options_.right_keys;
  const std::vector<int>& other_keys =
      port == 0 ? options_.right_keys : options_.left_keys;
  int other_ts = other == 0 ? options_.left_ts : options_.right_ts;
  PunctPattern p = PunctPattern::AllWildcard(
      input_schema(other)->num_fields());
  for (size_t k = 0; k < my_keys.size(); ++k) {
    p = p.With(other_keys[k], AttrPattern::Eq(t.value(my_keys[k])));
  }
  p = p.With(other_ts,
             AttrPattern::Range(
                 Value::Timestamp(options_.window.WindowStart(wid)),
                 Value::Timestamp(options_.window.WindowEnd(wid) - 1)));
  ++impatient_feedbacks_;
  SendFeedback(other, FeedbackPunctuation::Desired(std::move(p)));
}

void SymmetricHashJoin::SendGateFeedback(const Tuple& t, int64_t wid,
                                         uint64_t key) {
  // Rate-limit: one prediction per (window, key).
  if (!gate_requested_.insert(key).second) return;

  PunctPattern p = PunctPattern::AllWildcard(
      input_schema(1)->num_fields());
  for (size_t k = 0; k < options_.left_keys.size(); ++k) {
    p = p.With(options_.right_keys[k],
               AttrPattern::Eq(t.value(options_.left_keys[k])));
  }
  int64_t from = wid + 1;
  int64_t to = wid + options_.gate_feedback_horizon;
  p = p.With(options_.right_ts,
             AttrPattern::Range(
                 Value::Timestamp(options_.window.WindowStart(from)),
                 Value::Timestamp(options_.window.WindowEnd(to) - 1)));
  ++gate_feedbacks_;
  SendFeedback(1, FeedbackPunctuation::Assumed(p));
  stats_.work_avoided +=
      static_cast<uint64_t>(ctx()->PurgeInput(1, p));
}

void SymmetricHashJoin::EmitOuterRows(const WindowTable& table) {
  // Tuple-id order, not insertion order: a restore re-inserts rows in
  // snapshot (key-hash) order, and outer output must not depend on it.
  // Equal ids keep insertion order, which is name order.
  std::vector<uint32_t> unmatched;
  table.ForEachRow([&](uint32_t name, const Row* r) {
    if (r->live() && !r->matched()) unmatched.push_back(name);
  });
  std::sort(unmatched.begin(), unmatched.end(),
            [&table](uint32_t a, uint32_t b) {
              const int64_t ida = table.id(a);
              const int64_t idb = table.id(b);
              return ida != idb ? ida < idb : a < b;
            });
  Tuple& left = row_scratch_[0];
  for (const uint32_t name : unmatched) {
    table.Decode(name, &left);
    EmitJoinedPair(left, /*right=*/nullptr);
  }
}

void SymmetricHashJoin::PurgeWindowsThrough(int side, int64_t wid,
                                            bool emit_outer) {
  std::map<int64_t, WindowTable>& tables = tables_[side];
  const auto end = tables.upper_bound(wid);
  if (tables.begin() == end) return;
  for (auto it = tables.begin(); it != end; ++it) {
    if (emit_outer) EmitOuterRows(it->second);
    stats_.state_purged += it->second.live();
  }
  // Closed windows go whole: each table's arenas hand their chunks
  // back to the process-wide reserve in one release each, and they
  // refill the next windows on whichever worker fills them.
  tables.erase(tables.begin(), end);
  // NOTE: window_counts_ are NOT erased here. They are reclaimed only
  // when their own side's punctuation passes (ProcessPunctuation):
  // the thrifty check needs the probe side's counts to survive until
  // the probe stream itself punctuates the window.
}

void SymmetricHashJoin::MaybeThrifty(int64_t through_wid) {
  if (!options_.thrifty) return;
  int probe = options_.thrifty_probe_input;
  int other = 1 - probe;
  int other_ts = other == 0 ? options_.left_ts : options_.right_ts;
  int64_t from;
  if (thrifty_checked_through_ == INT64_MIN) {
    // First punctuation: start from the earliest probe window seen (or
    // this one), clamped at window 0 — application time is
    // non-negative in this engine, so earlier windows are vacuous.
    from = std::min(min_seen_wid_[probe], through_wid);
    if (from < 0) from = 0;
  } else {
    from = thrifty_checked_through_ + 1;
  }
  for (int64_t w = from; w <= through_wid; ++w) {
    auto it = window_counts_[probe].find(w);
    uint64_t count = it == window_counts_[probe].end() ? 0 : it->second;
    if (count != 0) continue;
    // Empty probe window: tuples of the other input in this window can
    // never produce join output — tell its antecedents (§3.3).
    PunctPattern p = PunctPattern::AllWildcard(
        input_schema(other)->num_fields());
    p = p.With(other_ts,
               AttrPattern::Range(
                   Value::Timestamp(options_.window.WindowStart(w)),
                   Value::Timestamp(options_.window.WindowEnd(w) - 1)));
    ++thrifty_feedbacks_;
    SendFeedback(other, FeedbackPunctuation::Assumed(p));
    stats_.work_avoided +=
        static_cast<uint64_t>(ctx()->PurgeInput(other, p));
  }
  thrifty_checked_through_ = through_wid;
}

Status SymmetricHashJoin::ProcessPunctuation(int port,
                                             const Punctuation& punct) {
  ++stats_.puncts_in;
  input_guards_[static_cast<size_t>(port)].ExpireCovered(punct);
  if (!options_.window_join) return Status::OK();

  // Watermark punctuation on this input's timestamp attribute.
  int ts_attr = port == 0 ? options_.left_ts : options_.right_ts;
  const PunctPattern& p = punct.pattern();
  std::vector<int> constrained = p.ConstrainedIndices();
  if (constrained.size() != 1 || constrained[0] != ts_attr) {
    return Status::OK();
  }
  const AttrPattern& ap = p.attr(ts_attr);
  Result<int64_t> bound = ap.operand().AsInt64();
  if (!bound.ok()) return Status::OK();
  int64_t inclusive = bound.value();
  if (ap.op() == PatternOp::kLt) {
    inclusive -= 1;
  } else if (ap.op() != PatternOp::kLe) {
    return Status::OK();
  }
  int64_t through = options_.window.LastClosableWindow(inclusive);
  if (through <= watermark_[port]) return Status::OK();
  watermark_[port] = through;

  if (options_.thrifty && port == options_.thrifty_probe_input) {
    MaybeThrifty(through);
  }
  // This side's counts for closed windows are no longer needed.
  auto& counts = window_counts_[port];
  for (auto cit = counts.begin();
       cit != counts.end() && cit->first <= through;) {
    cit = counts.erase(cit);
  }

  // This input is done with windows <= through, so the OTHER side's
  // entries there can never be probed again — purge them. Unmatched
  // left entries emit their outer tuple once the right input is done.
  int other = 1 - port;
  bool emit_outer = options_.left_outer && other == 0;
  PurgeWindowsThrough(other, through, emit_outer);

  // Downstream completeness: windows <= min watermark are final.
  int64_t both = std::min(watermark_[0], watermark_[1]);
  if (both > emitted_punct_through_ && both != INT64_MIN) {
    emitted_punct_through_ = both;
    PunctPattern out = PunctPattern::AllWildcard(
        output_schema(0)->num_fields());
    out = out.With(options_.left_ts,
                   AttrPattern::Le(Value::Timestamp(
                       options_.window.WindowEnd(both) - 1)));
    Punctuation out_punct(out);
    output_guards_.ExpireCovered(out_punct);
    FlushOutput();  // results for the closed windows go first
    EmitPunct(0, std::move(out_punct));
  }
  return Status::OK();
}

Status SymmetricHashJoin::OnAllInputsEos() {
  if (options_.left_outer) {
    // Remaining unmatched left tuples emit with NULL right attributes.
    for (const auto& [wid, table] : tables_[0]) EmitOuterRows(table);
  }
  for (int side = 0; side < 2; ++side) tables_[side].clear();
  FlushOutput();  // final results precede the EOS markers
  return Operator::OnAllInputsEos();
}

Status SymmetricHashJoin::HandleAssumed(const FeedbackPunctuation& fb) {
  if (options_.conservative_no_retraction ||
      options_.feedback_policy == FeedbackPolicy::kOutputGuardOnly) {
    output_guards_.Add(fb.pattern());
    return Status::OK();
  }
  bool exploited = false;
  for (int input = 0; input < 2; ++input) {
    Result<PunctPattern> derived = DeriveForInput(
        fb.pattern(), map_, input,
        input_schema(input)->num_fields());
    if (!derived.ok()) continue;
    exploited = true;
    // Table 2 local exploit: purge matching rows from this side's
    // window tables and guard the input. The compilation is shared via
    // the global cache — sharded plans derive the identical pattern in
    // every shard, and upstream hops purge with it again.
    std::shared_ptr<const CompiledPattern> compiled_ptr =
        CompiledPatternCache::Global().Get(derived.value());
    const CompiledPattern& compiled = *compiled_ptr;
    // A table whose window misses the timestamps the pattern allows
    // holds no row it matches — except window 0, where WidOf also files
    // every row whose timestamp is NULL, non-numeric or non-integral.
    int64_t lo = 0;
    int64_t hi = 0;
    const bool bounded =
        options_.window_join &&
        TimestampInterval(
            derived.value().attr(input == 0 ? options_.left_ts
                                            : options_.right_ts),
            &lo, &hi);
    std::map<int64_t, WindowTable>& tables = tables_[input];
    for (auto it = tables.begin(); it != tables.end();) {
      const int64_t wid = it->first;
      if (bounded && wid != 0 &&
          (options_.window.WindowEnd(wid) - 1 < lo ||
           options_.window.WindowStart(wid) > hi)) {
        ++it;
        continue;
      }
      stats_.state_purged += it->second.Purge(
          [&](const Tuple& row) { return compiled.Matches(row); },
          &row_scratch_[input]);
      it = it->second.live() == 0 ? tables.erase(it) : std::next(it);
    }
    input_guards_[static_cast<size_t>(input)].Add(derived.value());
    stats_.work_avoided +=
        static_cast<uint64_t>(ctx()->PurgeInput(input, derived.value()));
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      RelayFeedback(input,
                    FeedbackPunctuation::Assumed(derived.MoveValue()));
    }
  }
  if (!exploited) {
    // ¬[l,*,r]: constraints split across inputs — guard output only.
    output_guards_.Add(fb.pattern());
  }
  return Status::OK();
}

Status SymmetricHashJoin::ProcessFeedback(int,
                                          const FeedbackPunctuation& fb) {
  if (options_.feedback_policy == FeedbackPolicy::kIgnore ||
      fb.pattern().arity() != output_schema(0)->num_fields()) {
    ++stats_.feedback_ignored;
    return Status::OK();
  }
  if (fb.intent() == FeedbackIntent::kAssumed) {
    return HandleAssumed(fb);
  }
  // Desired / demanded: prioritization only — content is unaffected.
  bool any = false;
  for (int input = 0; input < 2; ++input) {
    Result<PunctPattern> derived = DeriveForInput(
        fb.pattern(), map_, input, input_schema(input)->num_fields());
    if (!derived.ok()) continue;
    any = true;
    ctx()->PrioritizeInput(input, derived.value());
    if (PolicyAtLeast(options_.feedback_policy,
                      FeedbackPolicy::kExploitAndPropagate)) {
      FeedbackPunctuation up(fb.intent(), derived.MoveValue());
      up.set_origin_op(fb.origin_op());
      RelayFeedback(input, std::move(up));
    }
  }
  if (!any) ++stats_.feedback_ignored;
  return Status::OK();
}

size_t SymmetricHashJoin::table_size(int input) const {
  size_t n = 0;
  for (const auto& [wid, table] : tables_[input]) n += table.live();
  return n;
}

size_t SymmetricHashJoin::state_bytes() const {
  size_t n = 0;
  for (const auto& tables : tables_) {
    for (const auto& [wid, table] : tables) n += table.bytes();
  }
  return n;
}

namespace {

std::vector<uint64_t> SortedSet(const std::unordered_set<uint64_t>& s) {
  std::vector<uint64_t> keys(s.begin(), s.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

Status SymmetricHashJoin::SnapshotState(SnapshotWriter* w) {
  NSTREAM_RETURN_NOT_OK(Operator::SnapshotState(w));
  // A live row: its (wid, key) hash, recomputed from its key slots,
  // its table's ordinal in `windows` and its name there.
  struct Ref {
    uint64_t hash;
    uint32_t table;
    uint32_t name;
  };
  std::vector<std::pair<int64_t, const WindowTable*>> windows;
  // One sort index for both sides, sized once for the larger: grown by
  // doubling it would hold two capacities at the peak.
  std::vector<Ref> refs;
  refs.reserve(std::max(table_size(0), table_size(1)));
  std::vector<std::pair<int64_t, Ref>> keyed;
  for (int side = 0; side < 2; ++side) {
    Tuple& scratch = row_scratch_[side];
    windows.clear();
    refs.clear();
    for (const auto& [wid, table] : tables_[side]) {
      const auto t = static_cast<uint32_t>(windows.size());
      windows.emplace_back(wid, &table);
      table.ForEachRow([&](uint32_t name, const Row* r) {
        if (!r->live()) return;
        table.Decode(name, &scratch);
        refs.push_back({KeyHash(scratch, side, wid), t, name});
      });
    }
    // Canonical order, independent of how rows spread over tables:
    // key-hash groups in sorted order, each window's rows of a group in
    // insertion order.
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      if (a.hash != b.hash) return a.hash < b.hash;
      return a.table != b.table ? a.table < b.table : a.name < b.name;
    });
    uint32_t groups = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (i == 0 || refs[i].hash != refs[i - 1].hash) ++groups;
    }
    w->WriteU32(groups);
    for (size_t i = 0; i < refs.size();) {
      size_t j = i + 1;
      while (j < refs.size() && refs[j].hash == refs[i].hash) ++j;
      if (refs[j - 1].table != refs[i].table) {
        // A group spanning windows (a key_hash_override that ignores
        // the wid): merge the windows' runs, each in insertion order,
        // taking the run head with the lowest tuple id, so a restore
        // re-inserts every table's rows in theirs. That merge is a
        // stable sort by each row's running maximum id within its run.
        keyed.clear();
        for (size_t k = i; k < j; ++k) {
          int64_t id = windows[refs[k].table].second->id(refs[k].name);
          if (k > i && refs[k].table == refs[k - 1].table) {
            id = std::max(id, keyed.back().first);
          }
          keyed.emplace_back(id, refs[k]);
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         });
        for (size_t k = i; k < j; ++k) refs[k] = keyed[k - i].second;
      }
      w->WriteU64(refs[i].hash);
      w->WriteU32(static_cast<uint32_t>(j - i));
      for (; i < j; ++i) {
        const auto& [wid, table] = windows[refs[i].table];
        table->Decode(refs[i].name, &scratch);
        w->WriteTuple(scratch);
        w->WriteI64(wid);
        const Row* r = table->row(refs[i].name);
        w->WriteBool(r->matched());
        w->WriteBool(r->gated());
      }
    }
    w->WriteGuardSet(input_guards_[side]);
    w->WriteU32(static_cast<uint32_t>(window_counts_[side].size()));
    for (const auto& [wid, count] : window_counts_[side]) {
      w->WriteI64(wid);
      w->WriteU64(count);
    }
    w->WriteI64(min_seen_wid_[side]);
    w->WriteI64(watermark_[side]);
  }
  w->WriteGuardSet(output_guards_);
  w->WriteI64(emitted_punct_through_);
  w->WriteI64(thrifty_checked_through_);
  for (const auto* set : {&impatient_requested_, &gate_requested_}) {
    std::vector<uint64_t> keys = SortedSet(*set);
    w->WriteU32(static_cast<uint32_t>(keys.size()));
    for (uint64_t k : keys) w->WriteU64(k);
  }
  w->WriteU64(thrifty_feedbacks_);
  w->WriteU64(impatient_feedbacks_);
  w->WriteU64(gate_feedbacks_);
  w->WriteU64(joined_count_);
  // Staged-but-unflushed results. Empty at any checkpoint barrier
  // (the executor flushes staged output before it forwards a
  // barrier), but captured anyway so the hook is honest for ad-hoc
  // snapshot points too.
  WritePageElements(w, out_staged_);
  return Status::OK();
}

Status SymmetricHashJoin::RestoreState(SnapshotReader* r) {
  NSTREAM_RETURN_NOT_OK(Operator::RestoreState(r));
  for (int side = 0; side < 2; ++side) {
    tables_[side].clear();
    uint32_t nkeys = 0;
    NSTREAM_RETURN_NOT_OK(r->ReadU32(&nkeys));
    for (uint32_t i = 0; i < nkeys; ++i) {
      uint64_t key = 0;
      uint32_t nrows = 0;
      NSTREAM_RETURN_NOT_OK(r->ReadU64(&key));
      NSTREAM_RETURN_NOT_OK(r->ReadU32(&nrows));
      for (uint32_t j = 0; j < nrows; ++j) {
        Tuple t;
        int64_t wid = 0;
        bool matched = false;
        bool gated = false;
        NSTREAM_RETURN_NOT_OK(r->ReadTuple(&t));
        NSTREAM_RETURN_NOT_OK(r->ReadI64(&wid));
        NSTREAM_RETURN_NOT_OK(r->ReadBool(&matched));
        NSTREAM_RETURN_NOT_OK(r->ReadBool(&gated));
        if (t.size() != (side == 0 ? left_arity_ : right_arity_)) {
          return Status::InvalidArgument(
              name() + ": snapshot row arity does not match the input");
        }
        if (KeyHash(t, side, wid) != key) {
          return Status::InvalidArgument(
              name() + ": snapshot row's key does not hash to its group");
        }
        NSTREAM_RETURN_NOT_OK(
            TableFor(side, wid).Insert(key, t, matched, gated));
      }
    }
    NSTREAM_RETURN_NOT_OK(r->ReadGuardSet(&input_guards_[side]));
    window_counts_[side].clear();
    uint32_t nwin = 0;
    NSTREAM_RETURN_NOT_OK(r->ReadU32(&nwin));
    for (uint32_t i = 0; i < nwin; ++i) {
      int64_t wid = 0;
      uint64_t count = 0;
      NSTREAM_RETURN_NOT_OK(r->ReadI64(&wid));
      NSTREAM_RETURN_NOT_OK(r->ReadU64(&count));
      window_counts_[side][wid] = count;
    }
    NSTREAM_RETURN_NOT_OK(r->ReadI64(&min_seen_wid_[side]));
    NSTREAM_RETURN_NOT_OK(r->ReadI64(&watermark_[side]));
  }
  NSTREAM_RETURN_NOT_OK(r->ReadGuardSet(&output_guards_));
  NSTREAM_RETURN_NOT_OK(r->ReadI64(&emitted_punct_through_));
  NSTREAM_RETURN_NOT_OK(r->ReadI64(&thrifty_checked_through_));
  for (auto* set : {&impatient_requested_, &gate_requested_}) {
    set->clear();
    uint32_t n = 0;
    NSTREAM_RETURN_NOT_OK(
        r->ReadCount(&n, sizeof(uint64_t), "join feedback key"));
    set->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t k = 0;
      NSTREAM_RETURN_NOT_OK(r->ReadU64(&k));
      set->insert(k);
    }
  }
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&thrifty_feedbacks_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&impatient_feedbacks_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&gate_feedbacks_));
  NSTREAM_RETURN_NOT_OK(r->ReadU64(&joined_count_));
  out_staged_ = Page();
  NSTREAM_RETURN_NOT_OK(ReadPageInto(r, &out_staged_));
  return Status::OK();
}

}  // namespace nstream
