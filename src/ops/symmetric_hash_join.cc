#include "ops/symmetric_hash_join.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>

#include "core/propagation.h"
#include "ops/shard_routing.h"
#include "punct/compiled_pattern.h"
#include "recovery/snapshot.h"

namespace nstream {

SymmetricHashJoin::SymmetricHashJoin(std::string name, JoinOptions options)
    : Operator(std::move(name), 2, 1), options_(std::move(options)) {}

Status SymmetricHashJoin::InferSchemas() {
  const Schema& left = *input_schema(0);
  const Schema& right = *input_schema(1);
  left_arity_ = left.num_fields();
  right_arity_ = right.num_fields();
  if (options_.left_keys.size() != options_.right_keys.size()) {
    return Status::InvalidArgument(name() + ": key arity mismatch");
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

SymmetricHashJoin::WindowTable::WindowTable(int arity, ChunkList* chunks)
    : arity_(arity),
      chunks_(chunks),
      arena_(std::make_unique<TupleArena>(chunks)) {}

uint32_t SymmetricHashJoin::WindowTable::Find(uint64_t hash) const {
  if (heads_.empty()) return kNoRow;
  uint32_t i = heads_[BucketOf(hash)];
  while (i != kNoRow && rows_[i]->hash != hash) i = rows_[i]->next;
  return i;
}

void SymmetricHashJoin::WindowTable::Link(uint32_t idx) {
  Row* r = rows_[idx];
  r->next = kNoRow;
  const size_t b = BucketOf(r->hash);
  if (heads_[b] == kNoRow) {
    heads_[b] = idx;
  } else {
    rows_[tails_[b]]->next = idx;
  }
  tails_[b] = idx;
}

void SymmetricHashJoin::WindowTable::Rehash(size_t buckets) {
  heads_.assign(buckets, kNoRow);
  tails_.assign(buckets, kNoRow);
  shift_ = 64 - std::countr_zero(buckets);
  // Relinking in insertion order keeps every bucket list in it.
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i]->live) Link(i);
  }
}

void SymmetricHashJoin::WindowTable::Insert(uint64_t hash, uint64_t seq,
                                            const Tuple& t, bool matched,
                                            bool gated) {
  assert(t.size() == arity_);
  void* mem = arena_->Allocate(
      sizeof(Row) + static_cast<size_t>(arity_) * sizeof(Value),
      alignof(Row));
  Row* r = new (mem) Row{hash,   seq,     t.id(), t.arrival_ms(),
                         kNoRow, matched, gated,  /*live=*/true};
  // Non-inline string bytes are copied into this arena; everything
  // else is a flat field copy. (Not via Tuple::Append: its Owns()
  // probe walks every chunk, and a window table holds hundreds.)
  Value* v = r->values();
  for (int i = 0; i < arity_; ++i) {
    const Value& src = t.value(i);
    if (src.is_string() && !src.is_inline_string()) {
      new (v + i) Value(Value::StringIn(arena_.get(), src.string_view()));
    } else {
      new (v + i) Value(Value::Alias(src));
    }
  }
  rows_.push_back(r);
  ++live_;
  if (rows_.size() > heads_.size()) {
    Rehash(heads_.empty() ? 16 : heads_.size() * 2);  // links r too
  } else {
    Link(static_cast<uint32_t>(rows_.size() - 1));
  }
}

template <typename Match>
size_t SymmetricHashJoin::WindowTable::Purge(Match&& match) {
  size_t purged = 0;
  for (size_t b = 0; b < heads_.size(); ++b) {
    uint32_t* link = &heads_[b];
    while (*link != kNoRow) {
      Row* r = rows_[*link];
      if (match(View(r))) {
        r->live = false;
        *link = r->next;
        ++purged;
      } else {
        tails_[b] = *link;
        link = &r->next;
      }
    }
  }
  live_ -= purged;
  // A non-windowed join never closes its one table: without this,
  // repeated feedback would keep purged rows' memory for the life of
  // the query.
  if (live_ > 0 && (rows_.size() - live_) * 2 > rows_.size()) Compact();
  return purged;
}

void SymmetricHashJoin::WindowTable::Compact() {
  WindowTable fresh(arity_, chunks_);
  fresh.rows_.reserve(live_);
  for (const Row* r : rows_) {
    if (r->live) fresh.Insert(r->hash, r->seq, View(r), r->matched, r->gated);
  }
  *this = std::move(fresh);  // the old arena's chunks go back to the list
}

size_t SymmetricHashJoin::WindowTable::bytes() const {
  return arena_->bytes_used() +
         (heads_.capacity() + tails_.capacity()) * sizeof(uint32_t) +
         rows_.capacity() * sizeof(Row*);
}

Tuple SymmetricHashJoin::JoinTuples(const Tuple& left, const Tuple& right,
                                    TupleArena* arena) const {
  Tuple out(arena, static_cast<size_t>(left.size()) + right_nonkey_.size());
  for (int i = 0; i < left.size(); ++i) out.Append(left.value(i));
  for (int i : right_nonkey_) out.Append(right.value(i));
  out.set_id(left.id());
  return out;
}

Tuple SymmetricHashJoin::OuterTuple(const Tuple& left,
                                    TupleArena* arena) const {
  Tuple out(arena, static_cast<size_t>(left.size()) + right_nonkey_.size());
  for (int i = 0; i < left.size(); ++i) out.Append(left.value(i));
  for (size_t i = 0; i < right_nonkey_.size(); ++i) {
    out.Append(Value::Null());
  }
  out.set_id(left.id());
  return out;
}

ColumnarBlock* SymmetricHashJoin::StagedColumnar() {
  if (out_staged_.is_columnar()) return out_staged_.columnar();
  if (!out_staged_.empty()) return nullptr;  // a row page is open
  if (!PageColumnar::enabled()) return nullptr;
  return out_staged_.BeginColumnar(
      static_cast<uint32_t>(left_arity_ +
                            static_cast<int>(right_nonkey_.size())),
      static_cast<uint32_t>(options_.output_page_size));
}

void SymmetricHashJoin::EmitJoinedPair(const Tuple& left,
                                       const Tuple* right) {
  if (output_guards_.empty()) {
    if (ColumnarBlock* blk = StagedColumnar()) {
      // Columnar result construction: one flat slot store per
      // attribute into contiguous column arrays — no per-result span
      // setup, no StreamElement, no intermediate row tuple.
      ++joined_count_;
      const uint32_t r = blk->AddRow(left.id(), /*arrival=*/-1);
      uint32_t c = 0;
      for (int i = 0; i < left.size(); ++i) {
        blk->Set(c++, r, left.value(i));
      }
      if (right != nullptr) {
        for (int i : right_nonkey_) blk->Set(c++, r, right->value(i));
      } else {
        for (size_t k = 0; k < right_nonkey_.size(); ++k) {
          blk->Set(c++, r, Value::Null());
        }
      }
      if (static_cast<int>(out_staged_.size()) >=
          options_.output_page_size) {
        FlushOutput();
      }
      return;
    }
  }
  // Row fallback (guards active, or columnar/arenas off). Results
  // build straight into the staging page's arena — zero heap
  // allocations per result. Flush a columnar staged page BEFORE
  // building the row tuple: a tuple built in its arena could not
  // legally be staged into the page that replaces it.
  if (out_staged_.is_columnar()) FlushOutput();
  TupleArena* arena = out_staged_.arena();
  Tuple out = right != nullptr ? JoinTuples(left, *right, arena)
                               : OuterTuple(left, arena);
  EmitJoined(std::move(out));
}

void SymmetricHashJoin::EmitJoined(Tuple out) {
  // Guard-empty fast path: the common (no-feedback) pipeline pays one
  // branch here, not a call per result.
  if (!output_guards_.empty() && output_guards_.Blocks(out)) {
    ++stats_.output_guard_drops;
    // An empty staged page's arena holds only dead payload (see
    // FlushOutput). Reset it once a chunk has piled up: under backlog
    // the task may not park for a long time. `out` is never read
    // again, and an arena tuple frees nothing.
    const TupleArena* arena = out_staged_.arena_if_created();
    if (out_staged_.empty() && arena != nullptr &&
        arena->bytes_used() >= TupleArena::kChunkBytes) {
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
  if (out_staged_.empty()) {
    out_staged_.Reserve(
        static_cast<size_t>(options_.output_page_size));
  }
  out_staged_.Add(StreamElement::OfTuple(std::move(out)));
  if (static_cast<int>(out_staged_.size()) >=
      options_.output_page_size) {
    FlushOutput();
  }
}

void SymmetricHashJoin::FlushOutput() {
  if (out_staged_.empty()) {
    // Guard-blocked results were built in the staging arena before
    // the Blocks() check dropped them (the guard matches the OUTPUT
    // tuple, so it cannot run before construction). If every result
    // since the last flush was blocked, the page is empty but the
    // arena holds their dead payloads — reset so a long-lived guard
    // cannot grow it without bound (chunks return to the pool).
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

void SymmetricHashJoin::ProbeAndStore(int port, const Tuple& tuple,
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
    memo->head = memo->probe != nullptr ? memo->probe->Find(key) : kNoRow;
  }

  // Probe the other side's rows with this hash (every one shares the
  // window). Equal hashes are not enough: each candidate must pass
  // value equality on the key subset.
  bool matched = false;
  if (!gated) {
    const std::vector<int>& my_keys =
        port == 0 ? options_.left_keys : options_.right_keys;
    const std::vector<int>& other_keys =
        port == 0 ? options_.right_keys : options_.left_keys;
    for (uint32_t i = memo->head; i != kNoRow;) {
      Row* row = memo->probe->row(i);
      i = row->next;
      if (row->hash != key) continue;         // another key's bucket mate
      if (port == 1 && row->gated) continue;  // right probe skips gated
      const Tuple stored = memo->probe->View(row);
      if (!tuple.EqualsSubset(stored, my_keys, other_keys)) {
        continue;  // hash collision: not actually the same key
      }
      row->matched = true;
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
  if (memo->own == nullptr) memo->own = &TableFor(port, wid);
  memo->own->Insert(key, next_seq_++, tuple, matched, gated);
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
    ProbeAndStore(port, tuple, wid, KeyHash(tuple, port, wid), &memo);
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
    ProbeAndStore(port, scratch, wid_scratch_[i], hash_scratch_[i], &memo);
  }
  return Status::OK();
}

Status SymmetricHashJoin::ProcessTuple(int port, const Tuple& tuple) {
  const int64_t wid = WidOf(tuple, port);
  if (!Admit(port, tuple, wid)) return Status::OK();
  ProbeMemo memo;
  ProbeAndStore(port, tuple, wid, KeyHash(tuple, port, wid), &memo);
  return Status::OK();
}

SymmetricHashJoin::WindowTable* SymmetricHashJoin::FindTable(int side,
                                                             int64_t wid) {
  auto it = tables_[side].find(wid);
  return it == tables_[side].end() ? nullptr : &it->second;
}

SymmetricHashJoin::WindowTable& SymmetricHashJoin::TableFor(int side,
                                                            int64_t wid) {
  return tables_[side]
      .try_emplace(wid, side == 0 ? left_arity_ : right_arity_,
                   &table_chunks_[side])
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
  std::vector<const Row*> unmatched;
  for (const Row* r : table.rows()) {
    if (r->live && !r->matched) unmatched.push_back(r);
  }
  std::stable_sort(unmatched.begin(), unmatched.end(),
                   [](const Row* a, const Row* b) { return a->id < b->id; });
  for (const Row* r : unmatched) {
    EmitJoinedPair(table.View(r), /*right=*/nullptr);
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
  // Closed windows go whole: each table's arena hands its chunks back
  // to this input's list in one release, and they refill its next
  // windows. Spares the last close left unused are freed, so the list
  // never holds more than one close released.
  ChunkList& chunks = table_chunks_[side];
  const size_t unused = chunks.size();
  tables.erase(tables.begin(), end);
  chunks.TrimTo(chunks.size() - unused);
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
  for (int side = 0; side < 2; ++side) {
    tables_[side].clear();
    table_chunks_[side].TrimTo(0);  // no window opens after EOS
  }
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
    std::map<int64_t, WindowTable>& tables = tables_[input];
    for (auto it = tables.begin(); it != tables.end();) {
      stats_.state_purged += it->second.Purge(
          [&](const Tuple& row) { return compiled.Matches(row); });
      it = it->second.live() == 0 ? tables.erase(it) : std::next(it);
    }
    input_guards_[static_cast<size_t>(input)].Add(derived.value());
    ctx()->PurgeInput(input, derived.value());
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
  struct Ref {
    const Row* row;
    const WindowTable* table;
    int64_t wid;
  };
  // One sort index for both sides, sized once for the larger: grown by
  // doubling it would hold two capacities at the peak.
  std::vector<Ref> refs;
  refs.reserve(std::max(table_size(0), table_size(1)));
  for (int side = 0; side < 2; ++side) {
    // Canonical order, independent of how rows spread over windows:
    // key-hash groups in sorted order, insertion order within a group
    // (a forced collision can put one hash in several windows).
    refs.clear();
    for (const auto& [wid, table] : tables_[side]) {
      for (const Row* r : table.rows()) {
        if (r->live) refs.push_back({r, &table, wid});
      }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
      if (a.row->hash != b.row->hash) return a.row->hash < b.row->hash;
      return a.row->seq < b.row->seq;
    });
    uint32_t groups = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (i == 0 || refs[i].row->hash != refs[i - 1].row->hash) ++groups;
    }
    w->WriteU32(groups);
    for (size_t i = 0; i < refs.size();) {
      size_t j = i + 1;
      while (j < refs.size() && refs[j].row->hash == refs[i].row->hash) ++j;
      w->WriteU64(refs[i].row->hash);
      w->WriteU32(static_cast<uint32_t>(j - i));
      for (; i < j; ++i) {
        w->WriteTuple(refs[i].table->View(refs[i].row));
        w->WriteI64(refs[i].wid);
        w->WriteBool(refs[i].row->matched);
        w->WriteBool(refs[i].row->gated);
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
        TableFor(side, wid).Insert(key, next_seq_++, t, matched, gated);
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
