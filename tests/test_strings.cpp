#include "util/strings.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <string_view>

namespace repro {
namespace {

// gtest prints a struct parameter as its raw bytes -- here string addresses,
// which move with every run -- and ctest names each case after that print.
// The glob and TLS cases print as their two strings instead, spelled so the
// name stays plain: "*.x.com" vs ".x.com" prints as Star_x_com_vs__x_com.
std::string case_name(std::string_view pattern, std::string_view text) {
  std::string out;
  const auto append = [&out](std::string_view s) {
    if (s.empty()) out += "empty";
    for (const char ch : s) {
      if (std::isalnum(static_cast<unsigned char>(ch))) {
        out += ch;
      } else if (ch == '*') {
        out += "Star";
      } else if (ch == '?') {
        out += "Any";
      } else {
        out += '_';
      }
    }
  };
  append(pattern);
  out += "_vs_";
  append(text);
  return out;
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("FbCdN.NeT"), "fbcdn.net");
  EXPECT_EQ(to_lower(""), "");
}

TEST(ToLower, IequalsMatchesLoweredCopies) {
  EXPECT_TRUE(iequals("FbCdN.NeT", "fbcdn.NET"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("fbcdn.net", "fbcdn.ne"));
  EXPECT_FALSE(iequals("fbcdn.net", "fbcdn.nex"));
  for (const char* a : {"A.b", "a.B", "a.c", "ab"}) {
    EXPECT_EQ(iequals(a, "a.b"), to_lower(a) == to_lower("a.b")) << a;
  }
}

TEST(Affixes, StartsEndsWith) {
  EXPECT_TRUE(starts_with("googlevideo.com", "google"));
  EXPECT_FALSE(starts_with("go", "google"));
  EXPECT_TRUE(ends_with("cache.fbcdn.net", ".fbcdn.net"));
  EXPECT_FALSE(ends_with("fbcdn.net.evil", ".fbcdn.net"));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, NoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Join, RoundTripWithSplit) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expected;
};

void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << case_name(c.pattern, c.text);
}

class GlobMatchTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobMatchTest, Matches) {
  const GlobCase& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expected)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobMatchTest,
    ::testing::Values(
        GlobCase{"*.googlevideo.com", "r4---sn.googlevideo.com", true},
        GlobCase{"*.googlevideo.com", "googlevideo.com", false},
        GlobCase{"*.googlevideo.com", "x.googlevideo.com.evil", false},
        GlobCase{"*.fbcdn.net", "scontent.fhan14-1.fna.fbcdn.net", true},
        GlobCase{"*", "anything", true},
        GlobCase{"*", "", true},
        GlobCase{"a*b", "ab", true},
        GlobCase{"a*b", "aXXXb", true},
        GlobCase{"a*b", "aXXXc", false},
        GlobCase{"a?c", "abc", true},
        GlobCase{"a?c", "ac", false},
        GlobCase{"ABC", "abc", true},  // case-insensitive
        GlobCase{"a**b", "ab", true},
        GlobCase{"", "", true},
        GlobCase{"", "x", false}));

struct TlsNameCase {
  const char* pattern;
  const char* name;
  bool expected;
};

void PrintTo(const TlsNameCase& c, std::ostream* os) {
  *os << case_name(c.pattern, c.name);
}

class TlsNameMatchTest : public ::testing::TestWithParam<TlsNameCase> {};

TEST_P(TlsNameMatchTest, Matches) {
  const TlsNameCase& c = GetParam();
  EXPECT_EQ(tls_name_match(c.pattern, c.name), c.expected)
      << c.pattern << " vs " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, TlsNameMatchTest,
    ::testing::Values(
        // A TLS wildcard covers exactly one extra label.
        TlsNameCase{"*.fbcdn.net", "scontent.fbcdn.net", true},
        TlsNameCase{"*.fbcdn.net", "a.b.fbcdn.net", false},
        TlsNameCase{"*.fbcdn.net", "fbcdn.net", false},
        TlsNameCase{"www.example.com", "www.example.com", true},
        TlsNameCase{"www.example.com", "WWW.EXAMPLE.COM", true},
        TlsNameCase{"www.example.com", "example.com", false},
        TlsNameCase{"*.x.com", ".x.com", false}));

TEST(WithCommas, Grouping) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.0, 0), "3");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(FormatPercent, FractionToPercent) {
  EXPECT_EQ(format_percent(0.3821), "38.2%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(0.005, 1), "0.5%");
}

}  // namespace
}  // namespace repro
