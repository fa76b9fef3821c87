#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace repro {
namespace {

TEST(Median, OddAndEven) {
  const double odd[] = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const double even[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_THROW(median({}), Error);
}

TEST(Percentile, EndpointsAndInterpolation) {
  const double values[] = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(values, 12.5), 15.0);  // interpolated
}

TEST(Percentile, Validation) {
  const double values[] = {1.0};
  EXPECT_THROW(percentile(values, -1.0), Error);
  EXPECT_THROW(percentile(values, 101.0), Error);
  EXPECT_THROW(percentile({}, 50.0), Error);
}

TEST(WeightedCcdf, UnweightedBasics) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const auto ccdf = weighted_ccdf(values, {});
  ASSERT_EQ(ccdf.size(), 4u);
  EXPECT_DOUBLE_EQ(ccdf.front().x, 1.0);
  EXPECT_DOUBLE_EQ(ccdf.front().fraction, 1.0);
  EXPECT_DOUBLE_EQ(ccdf.back().x, 4.0);
  EXPECT_DOUBLE_EQ(ccdf.back().fraction, 0.25);
}

TEST(WeightedCcdf, MonotoneNonIncreasing) {
  const double values[] = {5.0, 1.0, 3.0, 3.0, 2.0, 8.0};
  const auto ccdf = weighted_ccdf(values, {});
  for (std::size_t i = 1; i < ccdf.size(); ++i) {
    EXPECT_LT(ccdf[i - 1].x, ccdf[i].x);
    EXPECT_GE(ccdf[i - 1].fraction, ccdf[i].fraction);
  }
}

TEST(WeightedCcdf, WeightsShiftMass) {
  const double values[] = {1.0, 10.0};
  const double weights[] = {1.0, 3.0};
  const auto ccdf = weighted_ccdf(values, weights);
  ASSERT_EQ(ccdf.size(), 2u);
  EXPECT_DOUBLE_EQ(ccdf[1].fraction, 0.75);
}

TEST(WeightedCcdf, DuplicateValuesCollapse) {
  const double values[] = {2.0, 2.0, 2.0};
  const auto ccdf = weighted_ccdf(values, {});
  ASSERT_EQ(ccdf.size(), 1u);
  EXPECT_DOUBLE_EQ(ccdf[0].fraction, 1.0);
}

TEST(WeightedCcdf, Validation) {
  const double values[] = {1.0, 2.0};
  const double bad_size[] = {1.0};
  EXPECT_THROW(weighted_ccdf(values, bad_size), Error);
  const double negative[] = {1.0, -1.0};
  EXPECT_THROW(weighted_ccdf(values, negative), Error);
  EXPECT_TRUE(weighted_ccdf({}, {}).empty());
}

TEST(CcdfAt, EvaluatesBetweenPoints) {
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  const auto ccdf = weighted_ccdf(values, {});
  EXPECT_DOUBLE_EQ(ccdf_at(ccdf, 0.5), 1.0);   // everything >= 0.5
  EXPECT_DOUBLE_EQ(ccdf_at(ccdf, 2.0), 0.75);  // 2,3,4
  EXPECT_DOUBLE_EQ(ccdf_at(ccdf, 2.5), 0.5);   // 3,4
  EXPECT_DOUBLE_EQ(ccdf_at(ccdf, 9.0), 0.0);
}

}  // namespace
}  // namespace repro
