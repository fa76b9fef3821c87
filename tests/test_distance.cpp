#include "cluster/distance.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace repro {
namespace {

TEST(TrimmedManhattan, NoTrimIsPlainMean) {
  const double a[] = {1.0, 2.0, 3.0, 4.0};
  const double b[] = {2.0, 2.0, 5.0, 0.0};
  // |diffs| = {1, 0, 2, 4}, mean = 1.75
  EXPECT_DOUBLE_EQ(trimmed_manhattan(a, b, 0.0), 1.75);
}

TEST(TrimmedManhattan, TrimDropsLargestDiscrepancies) {
  const double a[] = {0.0, 0.0, 0.0, 0.0, 0.0};
  const double b[] = {1.0, 1.0, 1.0, 1.0, 100.0};
  // 20% trim drops one coordinate: the 100 outlier.
  EXPECT_DOUBLE_EQ(trimmed_manhattan(a, b, 0.2), 1.0);
}

TEST(TrimmedManhattan, IdenticalVectorsZero) {
  const double a[] = {5.0, 6.0, 7.0};
  EXPECT_DOUBLE_EQ(trimmed_manhattan(a, a, 0.2), 0.0);
}

TEST(TrimmedManhattan, Symmetric) {
  const double a[] = {1.0, 5.0, 9.0, 2.0};
  const double b[] = {4.0, 4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(trimmed_manhattan(a, b, 0.2), trimmed_manhattan(b, a, 0.2));
}

TEST(TrimmedManhattan, Validation) {
  const double a[] = {1.0};
  const double b[] = {1.0, 2.0};
  EXPECT_THROW(trimmed_manhattan(a, b, 0.2), Error);
  EXPECT_THROW(trimmed_manhattan({}, {}, 0.2), Error);
  EXPECT_THROW(trimmed_manhattan(a, a, 1.0), Error);
  EXPECT_THROW(trimmed_manhattan(a, a, -0.1), Error);
}

class TrimSweep : public ::testing::TestWithParam<double> {};

TEST_P(TrimSweep, MoreTrimNeverIncreasesDistance) {
  // Property: trimming removes the largest diffs, so the trimmed mean is
  // non-increasing in the trim fraction.
  const double a[] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const double b[] = {1.0, 3.0, 2.0, 9.0, 4.0, 2.5, 8.0, 0.5, 1.5, 6.0};
  const double trim = GetParam();
  if (trim + 0.1 >= 1.0) return;
  EXPECT_GE(trimmed_manhattan(a, b, trim), trimmed_manhattan(a, b, trim + 0.1));
}

INSTANTIATE_TEST_SUITE_P(Fractions, TrimSweep,
                         ::testing::Values(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                           0.7, 0.8));

// Randomized property tests: the distance must behave like a (pseudo-)metric
// on arbitrary latency-like vectors, not just the hand-picked cases above.
TEST(TrimmedManhattan, RandomizedProperties) {
  Rng rng(20230711);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.next() % 64);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(0.0, 300.0);
      b[i] = rng.uniform(0.0, 300.0);
    }
    const double trim = rng.uniform(0.0, 0.9);

    const double d = trimmed_manhattan(a, b, trim);
    // Non-negativity, symmetry (bit-exact: same diffs, same order), and
    // identity of indiscernibles.
    EXPECT_GE(d, 0.0);
    EXPECT_EQ(d, trimmed_manhattan(b, a, trim));
    EXPECT_EQ(trimmed_manhattan(a, a, trim), 0.0);

    // Monotone non-increasing in the trim fraction: more trimming can only
    // remove the largest coordinate discrepancies.
    double previous = trimmed_manhattan(a, b, 0.0);
    for (double t = 0.1; t < 0.95; t += 0.1) {
      const double current = trimmed_manhattan(a, b, t);
      EXPECT_LE(current, previous + 1e-12) << "trim " << t;
      previous = current;
    }
  }
}

TEST(DistanceMatrix, SymmetricStorage) {
  DistanceMatrix matrix(4);
  matrix.set(1, 3, 2.5);
  EXPECT_DOUBLE_EQ(matrix.at(1, 3), 2.5);
  EXPECT_DOUBLE_EQ(matrix.at(3, 1), 2.5);
  EXPECT_DOUBLE_EQ(matrix.at(2, 2), 0.0);
}

TEST(DistanceMatrix, Validation) {
  DistanceMatrix matrix(3);
  EXPECT_THROW(matrix.at(0, 3), Error);
  EXPECT_THROW(matrix.set(1, 1, 1.0), Error);
  EXPECT_THROW(matrix.set(0, 1, -1.0), Error);
  EXPECT_THROW(DistanceMatrix(0), Error);
}

TEST(DistanceMatrix, AllPairsIndependent) {
  DistanceMatrix matrix(5);
  double value = 1.0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) matrix.set(i, j, value++);
  }
  value = 1.0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(matrix.at(i, j), value++);
    }
  }
}

TEST(PairwiseDistances, MatchesDirectComputation) {
  // 3 rows x 4 cols.
  const std::vector<double> table{
      1.0, 2.0, 3.0, 4.0,   // row 0
      1.0, 2.0, 3.0, 4.0,   // row 1 (identical to 0)
      5.0, 5.0, 5.0, 5.0};  // row 2
  const DistanceMatrix matrix = pairwise_distances(table, 3, 4, 0.0);
  EXPECT_DOUBLE_EQ(matrix.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(matrix.at(0, 2), (4.0 + 3.0 + 2.0 + 1.0) / 4.0);
  EXPECT_DOUBLE_EQ(matrix.at(1, 2), matrix.at(0, 2));
}

TEST(PairwiseDistances, Validation) {
  const std::vector<double> table{1.0, 2.0};
  EXPECT_THROW(pairwise_distances(table, 2, 2, 0.2), Error);
  EXPECT_THROW(pairwise_distances(table, 0, 2, 0.2), Error);
}

}  // namespace
}  // namespace repro
