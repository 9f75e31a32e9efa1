// Small util helpers shared across the tools and reports: the strict
// integer and number parsers behind the tools' flags, and the order
// statistics used by the failure, serve and timing summaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parse.hpp"
#include "util/percentile.hpp"

namespace coyote::util {
namespace {

std::string rejection(const std::string& text) {
  try {
    (void)parseInteger(text, 0, 100, "--count");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ParseInteger, AcceptsDecimalIntegersInRange) {
  EXPECT_EQ(parseInteger("0", 0, 100, "--count"), 0);
  EXPECT_EQ(parseInteger("100", 0, 100, "--count"), 100);
  EXPECT_EQ(parseInteger("-3", -5, 5, "--offset"), -3);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parseInteger<std::uint64_t>("18446744073709551615", 0, kMax,
                                        "--seed"),
            kMax);
}

TEST(ParseInteger, RejectsOverflowSignsJunkAndEmptyInput) {
  for (const char* bad :
       {"",                     // empty
        "101", "-1",            // out of range
        "99999999999",          // overflows int instead of wrapping
        "+5",                   // explicit sign
        "2x", "abc", "5 ", " 5", "1.5"}) {  // junk, or no number at all
    const std::string what = rejection(bad);
    EXPECT_NE(what.find("--count: expected an integer in [0, 100], got '" +
                        std::string(bad) + "'"),
              std::string::npos)
        << "'" << bad << "' -> '" << what << "'";
  }
  // A sign is junk for an unsigned target, even inside its range.
  EXPECT_THROW((void)parseInteger<unsigned>("-0", 0, 10, "--threads"),
               std::invalid_argument);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)parseInteger<std::uint64_t>("18446744073709551616", 0,
                                                 kMax, "--seed"),
               std::invalid_argument);
}

TEST(ParseNumber, AcceptsFiniteDecimalsInRange) {
  EXPECT_EQ(parseNumber("2.5", 1.0, 10.0, "--margin"), 2.5);
  EXPECT_EQ(parseNumber("1", 1.0, 10.0, "--margin"), 1.0);
  EXPECT_EQ(parseNumber("1e1", 1.0, 10.0, "--margin"), 10.0);
  EXPECT_EQ(parseNumber("-0.25", -1.0, 1.0, "--x"), -0.25);
}

TEST(ParseNumber, RejectsNonFiniteJunkAndOutOfRange) {
  for (const char* bad :
       {"",                           // empty
        "0.5", "10.5",                // out of range
        "inf", "-inf", "nan", "1e999",  // non-finite or overflowing
        "+2", " 2", "2 ", "2.5junk", "0x2", "abc"}) {  // junk
    try {
      (void)parseNumber(bad, 1.0, 10.0, "--margin");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "--margin: expected a finite number in [1, 10], got '" +
                    std::string(bad) + "'");
    }
  }
}

TEST(Percentile, NearestRankAndMedian) {
  const std::vector<double> sample = {5, 1, 4, 2, 3};
  EXPECT_EQ(nearestRank(sample, 0.0), 1.0);
  EXPECT_EQ(nearestRank(sample, 0.5), 3.0);  // ceil(2.5) = 3rd smallest
  EXPECT_EQ(nearestRank(sample, 0.95), 5.0);
  EXPECT_EQ(nearestRank(sample, 1.0), 5.0);
  EXPECT_EQ(median(sample), 3.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);  // mean of the middle two
  EXPECT_EQ(nearestRank({}, 0.5), 0.0);
  EXPECT_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace coyote::util
