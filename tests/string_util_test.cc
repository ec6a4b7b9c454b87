#include "common/string_util.h"

#include <limits>

#include <gtest/gtest.h>

namespace pafeat {
namespace {

TEST(SplitTest, BasicFields) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparator) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitTest, EmptyInput) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(JoinTest, SingleAndEmpty) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" inner space kept "), "inner space kept");
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 4), "1.0000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ParseIntTest, ValidAndInvalid) {
  int value = 0;
  EXPECT_TRUE(ParseInt("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt(" -7 ", &value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(ParseInt("4x", &value));
  EXPECT_FALSE(ParseInt("", &value));
  EXPECT_FALSE(ParseInt("3.5", &value));
  // Out of int range is rejected, never wrapped.
  EXPECT_TRUE(ParseInt("2147483647", &value));
  EXPECT_EQ(value, 2147483647);
  EXPECT_TRUE(ParseInt("-2147483648", &value));
  EXPECT_EQ(value, -2147483647 - 1);
  for (const char* text : {"2147483648", "-2147483649", "4294967297",
                           "4294967360", "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt(text, &value)) << text;
  }
  EXPECT_EQ(value, -2147483647 - 1);  // untouched on failure
}

TEST(ParseLongLongTest, ValidAndInvalid) {
  long long value = 0;
  EXPECT_TRUE(ParseLongLong(" 4294967296 ", &value));
  EXPECT_EQ(value, 4294967296LL);
  EXPECT_TRUE(ParseLongLong("-9223372036854775808", &value));
  EXPECT_EQ(value, std::numeric_limits<long long>::min());
  EXPECT_TRUE(ParseLongLong("9223372036854775807", &value));
  EXPECT_EQ(value, std::numeric_limits<long long>::max());
  for (const char* text : {"", "64KB", "1e6", "0x100", "3.5",
                           "9223372036854775808", "-9223372036854775809",
                           "99999999999999999999"}) {
    EXPECT_FALSE(ParseLongLong(text, &value)) << text;
  }
  EXPECT_EQ(value, std::numeric_limits<long long>::max());  // untouched
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("2.5", &value));
  EXPECT_DOUBLE_EQ(value, 2.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &value));
  EXPECT_DOUBLE_EQ(value, -1e-3);
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("", &value));
}

TEST(ParseDoubleTest, RejectsNonFinite) {
  double value = 7.0;
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "1e400", "-1e400"}) {
    EXPECT_FALSE(ParseDouble(text, &value)) << text;
  }
  EXPECT_EQ(value, 7.0);  // untouched on failure
  EXPECT_TRUE(ParseDouble("1e39", &value));  // finite as a double
  EXPECT_EQ(value, 1e39);
}

TEST(ParseFloatTest, RejectsBeyondFloatRange) {
  float value = 7.0f;
  EXPECT_FALSE(ParseFloat("1e39", &value));
  EXPECT_FALSE(ParseFloat("-1e39", &value));
  EXPECT_FALSE(ParseFloat("nan", &value));
  EXPECT_EQ(value, 7.0f);
  EXPECT_TRUE(ParseFloat("3.4e38", &value));
  EXPECT_EQ(value, 3.4e38f);
  EXPECT_TRUE(ParseFloat(" -2.5 ", &value));
  EXPECT_EQ(value, -2.5f);
}

}  // namespace
}  // namespace pafeat
