// Tuple: one stream element's data payload, plus the engine metadata the
// evaluation needs (arrival time for latency accounting, a stable id for
// Figure 5/6-style output-pattern plots).
//
// Values live in a contiguous span with two ownership modes:
//
//   * OWNED  — the span is heap-allocated and destroyed with the tuple
//     (the fallback path; behaves like the old std::vector<Value>).
//   * ARENA  — the span is bump-allocated from a TupleArena owned by
//     the Page the tuple travels in; the tuple's destructor does
//     nothing and the page frees all payloads wholesale. Arena-mode
//     values are kept trivially destructible (string values borrow
//     arena bytes), which is what makes the wholesale free sound.
//
// Lifetime rules: an arena-backed tuple is valid only while its arena
// (its page) lives. Copies always deep-copy into OWNED mode, so
// accidental escapes are safe; moves preserve the arena pointer, so
// any path that moves a tuple out of its page into longer-lived state
// must call Promote() (to owned storage — window state and collectors
// do this) or Rehome() (into the destination page's arena —
// queue/page staging does this). Join tables encode values into their
// own window arenas instead and decode each row into a scratch tuple.

#ifndef NSTREAM_TYPES_TUPLE_H_
#define NSTREAM_TYPES_TUPLE_H_

#include <cassert>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "types/schema.h"
#include "types/tuple_arena.h"
#include "types/value.h"

namespace nstream {

/// A relational tuple. Values are positional; the schema lives on the
/// stream (operators know their input/output schemas), not on each
/// tuple, keeping tuples small.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) {
    ReserveOwned(values.size());
    for (Value& v : values) {
      new (data_ + size_) Value(std::move(v));
      ++size_;
    }
  }
  /// Arena-backed tuple with `capacity` values reserved from `arena`;
  /// plain owned mode when `arena` is null (the arena-less fallback
  /// every call site may rely on).
  Tuple(TupleArena* arena, size_t capacity) : arena_(arena) {
    if (arena_ != nullptr) {
      data_ = arena_->AllocateSpan<Value>(capacity);
      capacity_ = static_cast<uint32_t>(capacity);
    } else if (capacity > 0) {
      ReserveOwned(capacity);
    }
  }

  ~Tuple() { ReleaseOwned(); }

  // Copies deep-copy into OWNED mode (borrowed strings promote to
  // owned via Value's copy), so a copied tuple never references the
  // source page's arena.
  Tuple(const Tuple& o) : id_(o.id_), arrival_ms_(o.arrival_ms_) {
    if (o.size_ > 0) {
      ReserveOwned(o.size_);
      for (uint32_t i = 0; i < o.size_; ++i) {
        new (data_ + i) Value(o.data_[i]);
      }
      size_ = o.size_;
    }
  }
  Tuple& operator=(const Tuple& o) {
    if (this != &o) {
      Tuple tmp(o);
      *this = std::move(tmp);
    }
    return *this;
  }
  // Moves steal the span. An arena-backed tuple stays arena-backed —
  // the mover is responsible for Promote()/Rehome() when the tuple
  // outlives its page.
  Tuple(Tuple&& o) noexcept
      : data_(o.data_),
        size_(o.size_),
        capacity_(o.capacity_),
        arena_(o.arena_),
        id_(o.id_),
        arrival_ms_(o.arrival_ms_) {
    o.Forget();
  }
  Tuple& operator=(Tuple&& o) noexcept {
    if (this != &o) {
      ReleaseOwned();
      data_ = o.data_;
      size_ = o.size_;
      capacity_ = o.capacity_;
      arena_ = o.arena_;
      id_ = o.id_;
      arrival_ms_ = o.arrival_ms_;
      o.Forget();
    }
    return *this;
  }

  int size() const { return static_cast<int>(size_); }
  const Value& value(int i) const {
    assert(i >= 0 && static_cast<uint32_t>(i) < size_);
    return data_[i];
  }
  /// Mutable access. Do NOT store an owning (non-borrowed) string into
  /// an arena-backed tuple — its destructor never runs and the bytes
  /// would leak; use Value::StringIn(arena(), ...) instead.
  Value& mutable_value(int i) {
    assert(i >= 0 && static_cast<uint32_t>(i) < size_);
    return data_[i];
  }

  void Append(Value&& v) {
    if (size_ == capacity_) Grow();
    if (arena_ != nullptr) {
      // Keep arena-resident values trivially destructible: owned
      // string bytes are re-homed into the arena, and FOREIGN
      // borrowed bytes are re-copied because their source arena may
      // die first. A borrow that already points into this tuple's
      // arena (the Value::StringIn(arena, ...) construction pattern)
      // moves through without a second copy, and INLINE strings are
      // self-contained — they move through like any scalar.
      if (v.type() == ValueType::kString && !v.is_inline_string()) {
        std::string_view sv = v.string_view();
        if (v.is_borrowed_string() && arena_->Owns(sv.data())) {
          new (data_ + size_) Value(std::move(v));
        } else {
          new (data_ + size_) Value(Value::StringIn(arena_, sv));
        }
      } else {
        new (data_ + size_) Value(std::move(v));
      }
    } else {
      // Owned tuples must be self-contained: promote a borrowed
      // string (Value's copy constructor does) instead of moving it.
      if (v.is_borrowed_string()) {
        new (data_ + size_) Value(static_cast<const Value&>(v));
      } else {
        new (data_ + size_) Value(std::move(v));
      }
    }
    ++size_;
  }
  /// Copy-append straight from a source value without an intermediate
  /// promotion: in arena mode string bytes go directly into the arena
  /// (the join's result-construction hot path), and a borrow already
  /// backed by this arena is re-borrowed rather than re-copied.
  void Append(const Value& v) {
    if (size_ == capacity_) Grow();
    if (arena_ != nullptr && v.type() == ValueType::kString &&
        !v.is_inline_string()) {
      std::string_view sv = v.string_view();
      if (v.is_borrowed_string() && arena_->Owns(sv.data())) {
        new (data_ + size_) Value(Value::BorrowedString(sv));
      } else {
        new (data_ + size_) Value(Value::StringIn(arena_, sv));
      }
    } else {
      // Scalars and inline strings copy as flat fields (an inline
      // string is trivially destructible, so it is arena-legal as
      // is); a borrowed string copied into an owned tuple promotes
      // via Value's copy constructor.
      new (data_ + size_) Value(v);
    }
    ++size_;
  }
  /// Arena-mode append of an already-arena-legal value as a raw field
  /// copy (Value::Alias) — no Owns() probe, no byte clone. The caller
  /// guarantees `v` is trivially destructible and that any borrowed
  /// bytes live in (or outlive) this tuple's arena; the columnar
  /// row-gather path satisfies this by construction.
  void AppendAlias(const Value& v) {
    assert(arena_ != nullptr);
    if (size_ == capacity_) Grow();
    new (data_ + size_) Value(Value::Alias(v));
    ++size_;
  }
  void Reserve(size_t n) {
    if (n > capacity_) Regrow(n);
  }

  /// The arena backing this tuple's values, or null in owned mode.
  TupleArena* arena() const { return arena_; }
  bool arena_backed() const { return arena_ != nullptr; }

  /// Arena → owned: deep-copy the values into heap storage this tuple
  /// owns. No-op in owned mode. Required before storing a tuple beyond
  /// its page's lifetime (window state, collectors).
  void Promote() {
    if (arena_ == nullptr) return;
    Value* old = data_;
    uint32_t n = size_;
    arena_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    if (n > 0) {
      ReserveOwned(n);
      for (uint32_t i = 0; i < n; ++i) {
        new (data_ + i) Value(old[i]);  // copy promotes borrowed strings
      }
      size_ = n;
    }
    // `old` lives in the abandoned arena; nothing to free here.
  }

  /// Move this tuple's values into `dst`'s ownership domain: no-op
  /// when already owned or already backed by `dst`; Promote() when
  /// `dst` is null; otherwise bump-copy the span (and string bytes)
  /// into `dst`. Used when a tuple migrates from one page to another
  /// (queue open pages, exchange/select staging pages).
  void Rehome(TupleArena* dst) {
    if (arena_ == nullptr || arena_ == dst) return;
    if (dst == nullptr) {
      Promote();
      return;
    }
    Value* span = dst->AllocateSpan<Value>(size_);
    for (uint32_t i = 0; i < size_; ++i) {
      if (data_[i].is_borrowed_string()) {
        new (span + i) Value(
            Value::BorrowedString(dst->CopyString(data_[i].string_view())));
      } else {
        new (span + i) Value(std::move(data_[i]));
      }
    }
    data_ = span;
    capacity_ = size_;
    arena_ = dst;
  }

  /// Debug invariant behind the wholesale page free: an arena tuple
  /// must reference exactly `page_arena` and hold no owning strings;
  /// an owned tuple must hold no borrowed strings.
  bool ArenaInvariantHolds(const TupleArena* page_arena) const {
    if (arena_ != nullptr && arena_ != page_arena) return false;
    for (uint32_t i = 0; i < size_; ++i) {
      if (arena_ != nullptr && !data_[i].is_trivially_destructible_rep()) {
        return false;
      }
      if (arena_ == nullptr && data_[i].is_borrowed_string()) {
        return false;
      }
    }
    return true;
  }

  /// Engine-assigned monotone id (per source); 0 when unset.
  int64_t id() const { return id_; }
  void set_id(int64_t id) { id_ = id; }

  /// System time at which the tuple entered the engine. Used by PACE and
  /// by the timeliness metrics. -1 when unset.
  TimeMs arrival_ms() const { return arrival_ms_; }
  void set_arrival_ms(TimeMs t) { arrival_ms_ = t; }

  bool operator==(const Tuple& o) const {
    if (size_ != o.size_) return false;
    for (uint32_t i = 0; i < size_; ++i) {
      if (!(data_[i] == o.data_[i])) return false;
    }
    return true;
  }
  bool operator!=(const Tuple& o) const { return !(*this == o); }

  /// Hash over a subset of attribute positions (join keys, group
  /// keys). Inline: runs once per probe/insert on the join hot path.
  size_t HashSubset(const std::vector<int>& indices) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int i : indices) {
      h ^= data_[i].Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  /// Equality restricted to a subset of attribute positions. Inline:
  /// this is the collision check behind every hashed join probe.
  bool EqualsSubset(const Tuple& other, const std::vector<int>& mine,
                    const std::vector<int>& theirs) const {
    if (mine.size() != theirs.size()) return false;
    for (size_t k = 0; k < mine.size(); ++k) {
      if (!(data_[mine[k]] == other.data_[theirs[k]])) {
        return false;
      }
    }
    return true;
  }

  /// "<v0, v1, ...>" rendering.
  std::string ToString() const;

 private:
  void ReserveOwned(size_t n) {
    data_ = static_cast<Value*>(::operator new(n * sizeof(Value)));
    capacity_ = static_cast<uint32_t>(n);
  }
  void ReleaseOwned() {
    if (arena_ == nullptr && data_ != nullptr) DestroyOwned();
  }
  // Out of line: the owned free is a call to operator delete anyway,
  // and keeping it out of every inlined arena-tuple destructor spares
  // GCC's -Wfree-nonheap-object a path it cannot rule out (an arena
  // tuple handed to an opaque callee).
  void DestroyOwned();
  void Forget() {
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    arena_ = nullptr;
  }
  void Grow() { Regrow(capacity_ == 0 ? 4 : size_t{capacity_} * 2); }
  void Regrow(size_t n) {
    if (arena_ != nullptr) {
      Value* span = arena_->AllocateSpan<Value>(n);
      // Arena values are trivially destructible (no owned strings), so
      // move-construct into the new span and abandon the old one.
      for (uint32_t i = 0; i < size_; ++i) {
        new (span + i) Value(std::move(data_[i]));
      }
      data_ = span;
      capacity_ = static_cast<uint32_t>(n);
      return;
    }
    Value* old = data_;
    uint32_t old_n = size_;
    ReserveOwned(n);
    for (uint32_t i = 0; i < old_n; ++i) {
      new (data_ + i) Value(std::move(old[i]));
      old[i].~Value();
    }
    ::operator delete(old);
  }

  Value* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  TupleArena* arena_ = nullptr;
  int64_t id_ = 0;
  TimeMs arrival_ms_ = -1;
};

static_assert(std::is_nothrow_move_constructible_v<Tuple>,
              "Tuple moves are the currency of the page data path");

/// Convenience builder used heavily in tests and workload generators:
/// TupleBuilder().I64(3).D(51.2).Ts(9000).Build().
class TupleBuilder {
 public:
  TupleBuilder& Null() {
    values_.push_back(Value::Null());
    return *this;
  }
  TupleBuilder& B(bool v) {
    values_.push_back(Value::Bool(v));
    return *this;
  }
  TupleBuilder& I64(int64_t v) {
    values_.push_back(Value::Int64(v));
    return *this;
  }
  TupleBuilder& D(double v) {
    values_.push_back(Value::Double(v));
    return *this;
  }
  TupleBuilder& S(std::string v) {
    values_.push_back(Value::String(std::move(v)));
    return *this;
  }
  TupleBuilder& Ts(TimeMs v) {
    values_.push_back(Value::Timestamp(v));
    return *this;
  }
  TupleBuilder& V(Value v) {
    values_.push_back(std::move(v));
    return *this;
  }

  Tuple Build() { return Tuple(std::move(values_)); }

 private:
  std::vector<Value> values_;
};

}  // namespace nstream

#endif  // NSTREAM_TYPES_TUPLE_H_
