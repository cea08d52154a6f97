#include "types/value.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace nstream {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "null");
  EXPECT_FALSE(v.is_numeric());
}

TEST(ValueTest, FactoryTypes) {
  EXPECT_EQ(Value::Bool(true).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int64(3).type(), ValueType::kInt64);
  EXPECT_EQ(Value::Double(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value::String("x").type(), ValueType::kString);
  EXPECT_EQ(Value::Timestamp(9).type(), ValueType::kTimestamp);
}

TEST(ValueTest, FromPayloadMatchesTheFactories) {
  // Each non-string type from its payload image, compared by type,
  // equality and rendering (a double's sign survives).
  const double neg_zero = -0.0;
  const std::pair<Value, Value> cases[] = {
      {Value::FromPayload(ValueType::kNull, 0), Value::Null()},
      {Value::FromPayload(ValueType::kBool, 1), Value::Bool(true)},
      {Value::FromPayload(ValueType::kBool, 0), Value::Bool(false)},
      {Value::FromPayload(ValueType::kInt64, static_cast<uint64_t>(-7)),
       Value::Int64(-7)},
      {Value::FromPayload(ValueType::kTimestamp, 9), Value::Timestamp(9)},
      {Value::FromPayload(ValueType::kDouble, std::bit_cast<uint64_t>(2.5)),
       Value::Double(2.5)},
      {Value::FromPayload(ValueType::kDouble,
                          std::bit_cast<uint64_t>(neg_zero)),
       Value::Double(neg_zero)},
  };
  for (const auto& [decoded, made] : cases) {
    EXPECT_EQ(decoded.type(), made.type());
    EXPECT_EQ(decoded, made);
    EXPECT_EQ(decoded.ToString(), made.ToString());
    EXPECT_EQ(decoded.Hash(), made.Hash());
  }
  EXPECT_TRUE(std::signbit(cases[6].first.double_value()));
}

TEST(ValueTest, Accessors) {
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(-7).int64_value(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(2.25).double_value(), 2.25);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
  EXPECT_EQ(Value::Timestamp(123).timestamp_value(), 123);
}

TEST(ValueTest, AsDoubleWidensIntegers) {
  EXPECT_DOUBLE_EQ(Value::Int64(5).AsDouble().value(), 5.0);
  EXPECT_DOUBLE_EQ(Value::Timestamp(9).AsDouble().value(), 9.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble().value(), 1.0);
  EXPECT_FALSE(Value::String("x").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, AsInt64) {
  EXPECT_EQ(Value::Int64(5).AsInt64().value(), 5);
  EXPECT_EQ(Value::Timestamp(9).AsInt64().value(), 9);
  EXPECT_FALSE(Value::Double(2.5).AsInt64().ok());
  EXPECT_FALSE(Value::Null().AsInt64().ok());
}

TEST(ValueTest, CompareNumericCrossType) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)).value(), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)).value(), 0);
  EXPECT_GT(Value::Timestamp(10).Compare(Value::Int64(9)).value(), 0);
}

TEST(ValueTest, CompareNullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)).value(), 0);
  EXPECT_GT(Value::Int64(-100).Compare(Value::Null()).value(), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()).value(), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")).value(),
            0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")).value(), 0);
}

TEST(ValueTest, IncomparableTypesError) {
  EXPECT_FALSE(Value::String("1").Compare(Value::Int64(1)).ok());
  EXPECT_FALSE(Value::Bool(true).Compare(Value::Int64(1)).ok());
}

TEST(ValueTest, EqualityAcrossNumericTypes) {
  EXPECT_EQ(Value::Int64(42), Value::Double(42.0));
  EXPECT_NE(Value::Int64(42), Value::Double(42.5));
  EXPECT_NE(Value::String("42"), Value::Int64(42));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Timestamp(7).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
}

TEST(ValueTest, NaNEqualsOnlyNaNAndSortsAboveEveryNumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Value a = Value::Double(nan);
  const Value b = Value::Double(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Value::Double(0.0));
  EXPECT_NE(a, Value::Int64(0));
  EXPECT_NE(a, Value::Timestamp(3));
  for (const Value& n :
       {Value::Int64(INT64_MAX), Value::Timestamp(INT64_MIN),
        Value::Double(std::numeric_limits<double>::infinity()),
        Value::Double(-0.0)}) {
    EXPECT_GT(a.Compare(n).value(), 0) << n.ToString();
    EXPECT_LT(n.Compare(a).value(), 0) << n.ToString();
  }
  EXPECT_LT(Value::Null().Compare(a).value(), 0);
}

TEST(ValueTest, EqualValuesHashAlike) {
  // NaNs of different payloads and signs, both zeros, and 3 as every
  // numeric type: a == b must imply a.Hash() == b.Hash(), or a join
  // probe or a group-by would split what == calls one key.
  const auto nan_bits = [](uint64_t bits) {
    const double d = std::bit_cast<double>(bits);
    EXPECT_TRUE(std::isnan(d));
    return Value::Double(d);
  };
  const std::vector<Value> values = {
      nan_bits(0x7ff8000000000000ULL), nan_bits(0xfff8000000000000ULL),
      nan_bits(0x7ff0000000000001ULL), nan_bits(0x7ff8dead0000beefULL),
      Value::Double(0.0),              Value::Double(-0.0),
      Value::Int64(0),                 Value::Int64(3),
      Value::Double(3.0),              Value::Timestamp(3),
      Value::Double(3.5),              Value::Null(),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " " << b.ToString();
      }
    }
  }
  EXPECT_EQ(values[0], values[3]);
  EXPECT_EQ(values[4], values[6]);
  EXPECT_EQ(values[7], values[9]);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int64(5).ToString(), "5");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Timestamp(12).ToString(), "t:12");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(ValueTest, LargeIntegerExactCompare) {
  int64_t big = (1LL << 60) + 1;
  EXPECT_EQ(Value::Int64(big).Compare(Value::Int64(big)).value(), 0);
  EXPECT_LT(Value::Int64(big).Compare(Value::Int64(big + 1)).value(), 0);
}

}  // namespace
}  // namespace nstream
