// Value: a dynamically-typed scalar cell. Streams in the paper carry
// relational tuples over a small scalar vocabulary (ids, timestamps,
// speeds, locations); Value covers exactly that vocabulary plus NULL,
// which Experiment 1's dirty sensor readings require.
//
// Representation: a FLAT 16-byte tagged union — one 8-byte payload
// (bool / int64 / double / string bytes, each read through the union
// member it was stored through, so the punning is UB-clean), a 32-bit
// string length, three spare bytes, and a one-byte tag at offset 15.
// The tag byte carries the ValueType in bits 0-2 plus the string
// representation: bit 3 marks heap-OWNED bytes, and bit 7 marks an
// INLINE string whose LENGTH lives in bits 3-6 — spending tag bits on
// the length frees the 32-bit len_ field (and the spare bytes) to
// store string bytes, so inline strings cover the first 15 bytes of
// the object instead of only the 8-byte payload:
//
//   * kString                (no bits)  — BORROWED: the payload
//     pointer references bytes living in a TupleArena (page-owned
//     tuple memory); destruction is a no-op, the page frees the bytes
//     wholesale.
//   * kInlineFlag | len<<3 | kString — INLINE: up to 15 bytes stored
//     directly in the value (payload + len_ storage + spare bytes;
//     the length is in the tag). Self-contained AND trivially
//     destructible, so it is legal in both owned and arena-backed
//     tuples and copies as a plain field copy.
//   * kString | kOwnedBit    — OWNED: the payload pointer is a heap
//     buffer this value frees on destruction (the self-contained
//     representation for strings longer than 15 bytes).
//
// Borrowed and inline strings are what make arena-backed tuples
// trivially destructible. Copying a Value is a 16-byte field copy
// plus one branch on the tag; a borrowed or heap-owned string
// additionally clones its bytes into a self-contained representation
// (inline when they fit, heap otherwise), so a Value that escapes its
// page through a plain copy can never dangle. Only moves preserve a
// borrow, and those stay on arena-aware paths (Tuple append, rehome,
// promote).
//
// The previous representation — std::variant<monostate, bool, int64,
// double, std::string, StringRef> + tag, 48 bytes — paid a variant
// dispatch per copied value; the Table 2 join's result construction
// copies four values per output tuple and profiled dominated by those
// dispatches once the arena model removed allocation. The flat layout
// kills the dispatch and shrinks tuple spans 3x. bench_value_dispatch
// carries the A/B against a frozen variant reference.

#ifndef NSTREAM_TYPES_VALUE_H_
#define NSTREAM_TYPES_VALUE_H_

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/clock.h"
#include "common/status.h"
#include "types/tuple_arena.h"

namespace nstream {

/// Scalar type tags. kTimestamp is int64 milliseconds of application
/// time; it is kept distinct from kInt64 so punctuation schemes can
/// recognise delimited (progressing) attributes. The numbering is
/// load-bearing for the flat Value's one-compare type tests: the two
/// int64-imaged types differ only in bit 0, and the numeric types
/// (int64/timestamp/double) are contiguous.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kTimestamp = 3,
  kDouble = 4,
  kString = 5,
};

/// Name of a ValueType ("int64", "timestamp", ...).
const char* ValueTypeName(ValueType t);

/// Dynamically typed scalar. Total ordering: NULL sorts first; numeric
/// types (int64/double/timestamp) compare by numeric value across type
/// boundaries, and NaN equals only NaN and sorts above every number;
/// strings compare lexicographically and only with strings.
class Value {
 public:
  Value() = default;

  // Copies are a flat field copy plus a branch on the tag; a borrowed
  // or heap-owned string additionally clones its bytes into a
  // self-contained representation, so copied values are always safe
  // to outlive their source arena. Moves preserve the representation
  // (and therefore the borrow) and leave the source NULL.
  Value(const Value& o)
      : payload_(o.payload_), len_(o.len_), tag_(o.tag_) {
    extra_[0] = o.extra_[0];
    extra_[1] = o.extra_[1];
    extra_[2] = o.extra_[2];
    if (NeedsCloneOnCopy()) CloneStringBytes();
  }
  Value& operator=(const Value& o) {
    if (this != &o) {
      // Copy-and-move: `o` may borrow bytes inside our own storage
      // (a substring of our heap buffer, or even of our inline
      // payload), so the clone must complete before our fields are
      // touched.
      Value tmp(o);
      *this = std::move(tmp);
    }
    return *this;
  }
  Value(Value&& o) noexcept
      : payload_(o.payload_), len_(o.len_), tag_(o.tag_) {
    extra_[0] = o.extra_[0];
    extra_[1] = o.extra_[1];
    extra_[2] = o.extra_[2];
    o.ForgetPayload();
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      ::operator delete(const_cast<char*>(owned_ptr_or_null()));
      payload_ = o.payload_;
      len_ = o.len_;
      extra_[0] = o.extra_[0];
      extra_[1] = o.extra_[1];
      extra_[2] = o.extra_[2];
      tag_ = o.tag_;
      o.ForgetPayload();
    }
    return *this;
  }
  ~Value() {
    if (is_owned_rep()) {
      ::operator delete(const_cast<char*>(payload_.str));
    }
  }

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value x;
    x.tag_ = kTagBool;
    x.payload_.b = v;
    return x;
  }
  static Value Int64(int64_t v) {
    Value x;
    x.tag_ = kTagInt64;
    x.payload_.i = v;
    return x;
  }
  static Value Double(double v) {
    Value x;
    x.tag_ = kTagDouble;
    x.payload_.d = v;
    return x;
  }
  /// Self-contained string (by view — the flat rep always clones the
  /// bytes into its own representation, so there is no buffer to
  /// adopt and taking a std::string would only materialize a dead
  /// intermediate).
  static Value String(std::string_view v) { return OwnedString(v); }
  /// Self-contained string: INLINE when the bytes fit the 15-byte
  /// in-object store, heap-OWNED otherwise. Never references the
  /// caller's storage.
  static Value OwnedString(std::string_view s) {
    Value x;
    if (s.size() <= kInlineCap) {
      if (!s.empty()) std::memcpy(x.inline_data(), s.data(), s.size());
      x.tag_ = InlineTag(s.size());
    } else {
      x.len_ = CheckedLen(s.size());
      x.tag_ = kTagString;
      x.payload_.str = s.data();
      x.CloneStringBytes();
    }
    return x;
  }
  /// Borrow externally-owned bytes (a TupleArena's, in practice). The
  /// caller guarantees the bytes outlive every move of this value.
  static Value BorrowedString(std::string_view s) {
    Value x;
    x.tag_ = kTagString;
    x.payload_.str = s.data();
    x.len_ = CheckedLen(s.size());
    return x;
  }
  /// String with page-granular lifetime: INLINE when it fits (no
  /// arena bytes needed at all), otherwise borrowed from `arena` —
  /// or heap-owned when `arena` is null, the fallback path.
  static Value StringIn(TupleArena* arena, std::string_view s) {
    if (s.size() <= kInlineCap || arena == nullptr) {
      return OwnedString(s);
    }
    return BorrowedString(arena->CopyString(s));
  }
  static Value Timestamp(TimeMs v) {
    Value x;
    x.tag_ = kTagTimestamp;
    x.payload_.i = v;
    return x;
  }
  /// A non-string value of `type` from its 8-byte payload image (the
  /// int64 or timestamp, a double's bits, 0/1 for a bool, 0 for NULL),
  /// written as two whole words through the object representation, as
  /// inline strings are: the join's window tables decode one per
  /// stored value a probe reads, and the factories above store field
  /// by field.
  static Value FromPayload(ValueType type, uint64_t payload) {
    static_assert(std::endian::native == std::endian::little,
                  "the tag is the high byte of the second word");
    assert(type != ValueType::kString);
    const uint64_t high = uint64_t{static_cast<uint8_t>(type)} << 56;
    Value x;
    std::memcpy(x.inline_data(), &payload, sizeof(payload));
    std::memcpy(x.inline_data() + 8, &high, sizeof(high));
    return x;
  }
  /// Field copy WITHOUT byte cloning — an alias of `v`, not a
  /// self-contained copy. Legal only for trivially destructible
  /// representations (asserted): a borrowed-string alias shares the
  /// source's arena bytes and must not outlive that arena. The
  /// columnar row-gather paths use this to re-reference page-resident
  /// values at field-copy cost.
  static Value Alias(const Value& v) {
    assert(v.is_trivially_destructible_rep());
    Value x;
    x.payload_ = v.payload_;
    x.len_ = v.len_;
    x.extra_[0] = v.extra_[0];
    x.extra_[1] = v.extra_[1];
    x.extra_[2] = v.extra_[2];
    x.tag_ = v.tag_;
    return x;
  }

  ValueType type() const {
    return static_cast<ValueType>(tag_ & kTypeMask);
  }
  bool is_null() const { return tag_ == 0; }
  bool is_numeric() const {
    // int64/timestamp/double are contiguous tags [2, 4]; string
    // modifier bits push the tag far outside the window.
    return static_cast<uint8_t>(tag_ - kTagInt64) <= 2;
  }
  bool is_string() const { return (tag_ & kTypeMask) == kTagString; }
  /// True when the 8-byte payload is an int64 image (kInt64 or
  /// kTimestamp — tags 2 and 3, one masked compare). Public for typed
  /// fast paths (compiled patterns, join-key hashing) that dispatch
  /// once and read the payload raw.
  bool is_int64_rep() const { return (tag_ & 0xFE) == kTagInt64; }
  /// True for a kString value whose bytes are borrowed (arena-backed).
  bool is_borrowed_string() const { return tag_ == kTagString; }
  /// True for a kString value whose bytes live inside the value (only
  /// strings ever set the inline flag, so the bit test suffices).
  bool is_inline_string() const {
    return (tag_ & kInlineFlag) != 0;
  }
  /// True when destroying this value releases no resources — the
  /// invariant every arena-resident value must satisfy (the arena is
  /// freed wholesale, destructors never run).
  bool is_trivially_destructible_rep() const { return !is_owned_rep(); }

  // Accessors assume the type matches (checked in debug builds).
  bool bool_value() const {
    assert(type() == ValueType::kBool);
    return payload_.b;
  }
  int64_t int64_value() const {
    assert(is_int64_rep());
    return payload_.i;
  }
  double double_value() const {
    assert(type() == ValueType::kDouble);
    return payload_.d;
  }
  /// Raw payload reads for callers that already dispatched on the tag
  /// (CompiledPattern's typed comparison plans). No debug type check:
  /// the caller's switch IS the check.
  int64_t unchecked_int64() const { return payload_.i; }
  double unchecked_double() const { return payload_.d; }
  /// Owned-string materialization (by value — the flat representation
  /// holds raw bytes, not a std::string). Prefer string_view().
  std::string string_value() const { return std::string(string_view()); }
  /// View of the string bytes: borrowed, inline, or heap-owned. An
  /// INLINE view points into this Value — it dies with the value (or
  /// its move), unlike borrowed/owned views which track the bytes.
  std::string_view string_view() const {
    assert(is_string());
    if (tag_ & kInlineFlag) {
      return std::string_view(inline_data(), inline_len());
    }
    return std::string_view(payload_.str, len_);
  }
  TimeMs timestamp_value() const {
    assert(is_int64_rep());
    return payload_.i;
  }

  /// Numeric view: int64/timestamp widened to double. Error on
  /// non-numeric types.
  Result<double> AsDouble() const;

  /// Integer view. Error on non-integral types.
  Result<int64_t> AsInt64() const;

  /// Three-way comparison per the total ordering above. Returns an
  /// error for incomparable pairs (e.g. string vs int64).
  Result<int> Compare(const Value& other) const;

  /// Allocation-free comparison for hot paths (pattern matching, join
  /// probes): writes -1/0/1 into `*out` and returns true, or returns
  /// false for incomparable pairs. Same ordering as Compare. Fully
  /// inline: this runs per guarded tuple and per probe collision.
  bool TryCompare(const Value& other, int* out) const {
    // Both int64/timestamp — the join-key / punctuation shape. One
    // fused tag test: tags 2 and 3 differ only in bit 0.
    if ((((tag_ ^ kTagInt64) | (other.tag_ ^ kTagInt64)) & 0xFE) == 0) {
      int64_t a = payload_.i;
      int64_t b = other.payload_.i;
      *out = a < b ? -1 : (a > b ? 1 : 0);
      return true;
    }
    // NULL sorts before everything; two NULLs are equal.
    if (is_null() || other.is_null()) {
      if (is_null() && other.is_null()) {
        *out = 0;
      } else {
        *out = is_null() ? -1 : 1;
      }
      return true;
    }
    if (is_numeric() && other.is_numeric()) {
      // At least one side is a double: widen (fine for the
      // magnitudes streams carry).
      double a = tag_ == kTagDouble ? payload_.d
                                    : static_cast<double>(payload_.i);
      double b = other.tag_ == kTagDouble
                     ? other.payload_.d
                     : static_cast<double>(other.payload_.i);
      if (std::isnan(a) || std::isnan(b)) {
        // NaN equals only NaN and sorts above every number.
        *out = static_cast<int>(std::isnan(a)) -
               static_cast<int>(std::isnan(b));
        return true;
      }
      *out = a < b ? -1 : (a > b ? 1 : 0);
      return true;
    }
    if (is_string() && other.is_string()) {
      int c = string_view().compare(other.string_view());
      *out = c < 0 ? -1 : (c > 0 ? 1 : 0);
      return true;
    }
    if (tag_ == kTagBool && other.tag_ == kTagBool) {
      *out = static_cast<int>(payload_.b) -
             static_cast<int>(other.payload_.b);
      return true;
    }
    return false;
  }

  /// Equality per the same ordering; incomparable pairs are unequal.
  /// Int64/timestamp pairs (the dominant join-key shape) are compared
  /// inline; everything else takes the out-of-line path.
  bool operator==(const Value& other) const {
    if ((((tag_ ^ kTagInt64) | (other.tag_ ^ kTagInt64)) & 0xFE) == 0) {
      return payload_.i == other.payload_.i;
    }
    return EqualsSlow(other);
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Hash compatible with operator== (numerically equal int64/double
  /// values hash identically, including the >2^53 region where mixed
  /// int64/double equality is decided in double precision; every NaN
  /// hashes alike; borrowed, inline, and owned strings with equal bytes
  /// hash identically).
  /// The common small-int64/timestamp case is inline for the join-key
  /// path.
  size_t Hash() const {
    if (is_int64_rep()) return HashInt64Domain(payload_.i);
    // Doubles are NOT rare (a quarter of a typical measurement
    // stream): dispatch them here rather than through HashSlow's
    // full switch.
    if (tag_ == kTagDouble) return HashDoubleDomain(payload_.d);
    return HashSlow();
  }

  /// Debug/display rendering ("42", "3.500", "'abc'", "null",
  /// "t:120000").
  std::string ToString() const;

  /// 2^53: int64 magnitudes below this are exactly representable as
  /// double, so int64-domain and double-domain equality agree and the
  /// hash can canonicalize on int64. At or above it, mixed
  /// int64/double equality is decided in (lossy) double precision and
  /// the hash must canonicalize on the double image instead.
  static constexpr int64_t kDoubleExactBound = int64_t{1} << 53;

  /// Longest string stored inline in the value (payload + len_
  /// storage + spare bytes; everything before the tag at offset 15).
  static constexpr size_t kInlineCap = 15;

 private:
  // Tag byte layout: ValueType in bits 0-2; kOwnedBit (bit 3) marks a
  // heap-owned string; kInlineFlag (bit 7) marks an inline string
  // whose length occupies bits 3-6 (0..15 — an inline tag therefore
  // may have bit 3 set, so "owned" is owned-bit AND NOT inline).
  // kNull is 0, so a zero tag byte IS the null value.
  static constexpr uint8_t kTypeMask = 0x07;
  static constexpr uint8_t kOwnedBit = 0x08;
  static constexpr uint8_t kInlineFlag = 0x80;
  static constexpr int kInlineLenShift = 3;
  static constexpr uint8_t kTagBool =
      static_cast<uint8_t>(ValueType::kBool);
  static constexpr uint8_t kTagInt64 =
      static_cast<uint8_t>(ValueType::kInt64);
  static constexpr uint8_t kTagTimestamp =
      static_cast<uint8_t>(ValueType::kTimestamp);
  static constexpr uint8_t kTagDouble =
      static_cast<uint8_t>(ValueType::kDouble);
  static constexpr uint8_t kTagString =
      static_cast<uint8_t>(ValueType::kString);

  // The 8-byte payload. Each member is read only through the member
  // it was stored through (the tag says which), so access is always
  // to the active member — no type punning, UB-clean by construction.
  union Payload {
    bool b;
    int64_t i;  // kInt64 and kTimestamp
    double d;
    const char* str;  // borrowed/owned string bytes (see tag)
    char buf[8];      // first 8 inline string bytes
  };

  static constexpr uint8_t InlineTag(size_t n) {
    return static_cast<uint8_t>(kInlineFlag | (n << kInlineLenShift) |
                                kTagString);
  }
  uint32_t inline_len() const {
    return (tag_ >> kInlineLenShift) & 0x0F;
  }
  // Inline string bytes span payload_, len_'s storage, and extra_ —
  // the 15 contiguous bytes before the tag (offsets static_asserted in
  // value.cc). Accessed only through char pointers to the object
  // representation, which aliases anything.
  char* inline_data() { return reinterpret_cast<char*>(&payload_); }
  const char* inline_data() const {
    return reinterpret_cast<const char*>(&payload_);
  }
  /// Owned = owned bit set AND not inline (an inline tag may carry
  /// bit 3 as part of its length nibble).
  bool is_owned_rep() const {
    return (tag_ & (kOwnedBit | kInlineFlag)) == kOwnedBit;
  }

  static uint32_t CheckedLen(size_t n) {
    // Hard check, release builds included: a ≥4 GiB string cell is far
    // beyond any stream workload, and silently wrapping len_ would
    // corrupt the value (equal-to-empty, wrong hash) instead of
    // failing.
    if (n > UINT32_MAX) std::abort();
    return static_cast<uint32_t>(n);
  }

  /// A copy must clone bytes exactly when the source is a borrowed or
  /// heap-owned string; inline strings (and every non-string) copy as
  /// plain fields. Masking out the owned bit and the inline flag
  /// folds borrowed (0x05) and owned (0x0D) onto kTagString with one
  /// compare, while every inline tag keeps bit 7 and fails it.
  bool NeedsCloneOnCopy() const {
    return (tag_ & static_cast<uint8_t>(~kOwnedBit)) == kTagString;
  }
  /// Replace the (possibly foreign) string payload with a
  /// self-contained copy of its bytes: inline when they fit, heap
  /// otherwise. Only called on borrowed/owned reps, whose length is
  /// in len_ (saved before the inline bytes overwrite its storage).
  void CloneStringBytes() {
    const char* src = payload_.str;
    const uint32_t n = len_;
    if (n <= kInlineCap) {
      if (n != 0) std::memcpy(inline_data(), src, n);
      tag_ = InlineTag(n);
      return;
    }
    char* p = static_cast<char*>(::operator new(n));
    std::memcpy(p, src, n);
    payload_.str = p;
    tag_ = kTagString | kOwnedBit;
  }
  const char* owned_ptr_or_null() const {
    return is_owned_rep() ? payload_.str : nullptr;
  }
  /// Reset to NULL without freeing (the payload now belongs to a
  /// move destination).
  void ForgetPayload() {
    payload_.i = 0;
    len_ = 0;
    extra_[0] = extra_[1] = extra_[2] = 0;
    tag_ = 0;
  }

  bool EqualsSlow(const Value& other) const {
    int c;
    return TryCompare(other, &c) && c == 0;
  }

  // The numeric canonicalization rule, ==-compatible with
  // TryCompare's widening and defined ONCE per domain (Hash and
  // HashSlow both route here): magnitudes under 2^53 — where int64
  // and double agree exactly — hash in the int64 domain; everything
  // else hashes via its double image, the precision in which mixed
  // int64/double equality is decided.
  static size_t HashInt64Domain(int64_t v) {
    if (v > -kDoubleExactBound && v < kDoubleExactBound) {
      return std::hash<int64_t>{}(v);
    }
    return std::hash<double>{}(static_cast<double>(v));
  }
  static size_t HashDoubleDomain(double d) {
    if (d > -static_cast<double>(kDoubleExactBound) &&
        d < static_cast<double>(kDoubleExactBound)) {
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        return std::hash<int64_t>{}(i);
      }
    }
    if (std::isnan(d)) return 0x7ff8a3d1c6b9e25fULL;  // one hash per NaN
    return std::hash<double>{}(d);
  }

  /// Hash for everything Hash()'s tag dispatch rejects — null, bool,
  /// strings (numerics are routed before this is reached, but the
  /// cases stay so HashSlow is total over every tag).
  size_t HashSlow() const {
    switch (type()) {
      case ValueType::kNull:
        return 0x9ae16a3b2f90404fULL;
      case ValueType::kBool:
        return payload_.b ? 0x1234567 : 0x7654321;
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        return HashInt64Domain(payload_.i);
      case ValueType::kDouble:
        return HashDoubleDomain(payload_.d);
      case ValueType::kString:
        // Borrowed, inline, and owned strings with equal bytes must
        // hash alike.
        return std::hash<std::string_view>{}(string_view());
    }
    return 0;
  }

  // Order is load-bearing: payload_, len_, extra_ are the 15
  // contiguous bytes an inline string occupies, with the tag last at
  // offset 15 (layout static_asserted in value.cc).
  Payload payload_{.i = 0};
  uint32_t len_ = 0;     // string byte count for borrowed/owned reps
  char extra_[3] = {};   // inline string bytes 12..14
  uint8_t tag_ = 0;      // ValueType | string rep (see above)

  friend struct ValueLayoutAsserts;
};

// The whole point: four of these per Table 2 output tuple must copy as
// a couple of stores, not a variant dispatch.
static_assert(sizeof(Value) <= 16,
              "Value must stay a flat 16-byte tagged union");
static_assert(std::is_nothrow_move_constructible_v<Value> &&
                  std::is_nothrow_move_assignable_v<Value>,
              "Value moves are the currency of the tuple data path");

}  // namespace nstream

#endif  // NSTREAM_TYPES_VALUE_H_
