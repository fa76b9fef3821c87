#include "mlab/filters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/scenario.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace repro {
namespace {

/// Builds a vantage point set over a tiny world for geometry-aware tests.
class FiltersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    vps_ = new VantagePointSet(*net_, 30, 7);
  }
  static void TearDownTestSuite() {
    delete vps_;
    delete net_;
  }
  static Internet* net_;
  static VantagePointSet* vps_;
};

Internet* FiltersTest::net_ = nullptr;
VantagePointSet* FiltersTest::vps_ = nullptr;

TEST_F(FiltersTest, PhysicalRttsPassSpeedOfLight) {
  // RTTs derived from an actual location can never violate the check.
  const GeoPoint server = net_->metros.front().location;
  std::vector<double> rtts(vps_->size());
  for (std::size_t v = 0; v < vps_->size(); ++v) {
    rtts[v] = min_rtt_ms((*vps_)[v].location, server) * 1.3 + 2.0;
  }
  EXPECT_FALSE(violates_speed_of_light(rtts, *vps_, FilterConfig{}));
}

TEST_F(FiltersTest, SplitPersonalityDetected) {
  // Half the VPs see a server in metro A, half in a far metro B: some pair
  // must violate the triangle bound.
  const Metro* far = nullptr;
  const Metro& home = net_->metros.front();
  for (const Metro& metro : net_->metros) {
    if (haversine_km(home.location, metro.location) > 8000.0) {
      far = &metro;
      break;
    }
  }
  ASSERT_NE(far, nullptr) << "tiny world lacks far metro pair";
  std::vector<double> rtts(vps_->size());
  for (std::size_t v = 0; v < vps_->size(); ++v) {
    const GeoPoint& loc = v % 2 == 0 ? home.location : far->location;
    rtts[v] = min_rtt_ms((*vps_)[v].location, loc) * 1.05 + 0.5;
  }
  EXPECT_TRUE(violates_speed_of_light(rtts, *vps_, FilterConfig{}));
}

TEST_F(FiltersTest, TooFewMeasurementsNeverViolate) {
  std::vector<double> rtts(vps_->size(), kNoMeasurement);
  EXPECT_FALSE(violates_speed_of_light(rtts, *vps_, FilterConfig{}));
  rtts[0] = 1.0;
  EXPECT_FALSE(violates_speed_of_light(rtts, *vps_, FilterConfig{}));
}

/// Every ordered pair of the table against the direct computation, bit for
/// bit; (i, j) and (j, i) are checked separately, so the test holds whether
/// or not haversine is bit-symmetric.
void expect_light_bounds_exact(const VantagePointSet& vps) {
  for (std::size_t i = 0; i < vps.size(); ++i) {
    for (std::size_t j = 0; j < vps.size(); ++j) {
      const double direct =
          propagation_ms(haversine_km(vps[i].location, vps[j].location));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(vps.light_bound_ms(i, j)),
                std::bit_cast<std::uint64_t>(direct))
          << "pair (" << i << "," << j << ") of " << vps.size();
    }
  }
}

TEST_F(FiltersTest, LightBoundTableMatchesHaversineBitForBit) {
  expect_light_bounds_exact(*vps_);
  expect_light_bounds_exact(VantagePointSet(*net_, 163, 7));
}

/// The speed-of-light screen spelled out: every finite column stable-sorted
/// by RTT (so equal RTTs keep ascending column order), then every pair among
/// the lowest `sol_check_candidates` against the direct haversine bound.
bool reference_violates(const std::vector<double>& rtts,
                        const VantagePointSet& vps,
                        const FilterConfig& config) {
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    if (std::isfinite(rtts[i])) cols.push_back(i);
  }
  std::stable_sort(cols.begin(), cols.end(), [&](std::size_t a, std::size_t b) {
    return rtts[a] < rtts[b];
  });
  const std::size_t limit = std::min(cols.size(), config.sol_check_candidates);
  for (std::size_t i = 0; i < limit; ++i) {
    for (std::size_t j = i + 1; j < limit; ++j) {
      const double bound = propagation_ms(
          haversine_km(vps[cols[i]].location, vps[cols[j]].location));
      if (rtts[cols[i]] / 2.0 + rtts[cols[j]] / 2.0 +
              config.sol_tolerance_ms <
          bound) {
        return true;
      }
    }
  }
  return false;
}

TEST_F(FiltersTest, CandidateSelectionMatchesStableSortUnderTies) {
  // Each row draws a base level and adds one of three offsets, with NaN
  // holes: dozens of columns share each RTT, so ties straddle the
  // candidate boundary. Bases span never-violating (above the ~100 ms
  // antipodal bound) to always-violating, so both verdicts occur.
  const VantagePointSet wide(*net_, 163, 7);
  constexpr double kBases[] = {3.0, 20.0, 35.0, 50.0, 70.0, 120.0};
  constexpr double kOffsets[] = {0.0, 1.5, 3.0};
  Rng rng(0x50117);
  std::size_t rows = 0;
  std::size_t violating = 0;
  const VantagePointSet* const sets[] = {vps_, &wide};
  for (const VantagePointSet* vps : sets) {
    for (const std::size_t candidates : {std::size_t{2}, std::size_t{24},
                                         vps->size() + 5}) {
      for (const double tolerance : {0.0, 2.5}) {
        FilterConfig config;
        config.sol_check_candidates = candidates;
        config.sol_tolerance_ms = tolerance;
        for (int trial = 0; trial < 200; ++trial) {
          const double base = kBases[rng.uniform_int(0, 5)];
          std::vector<double> rtts(vps->size());
          for (double& rtt : rtts) {
            rtt = rng.chance(0.15) ? kNoMeasurement
                                   : base + kOffsets[rng.uniform_int(0, 2)];
          }
          const bool expected = reference_violates(rtts, *vps, config);
          ASSERT_EQ(violates_speed_of_light(rtts, *vps, config), expected)
              << vps->size() << " VPs, " << candidates << " candidates, "
              << "tolerance " << tolerance << ", trial " << trial;
          ++rows;
          if (expected) ++violating;
        }
      }
    }
  }
  EXPECT_GT(violating, rows / 10);
  EXPECT_LT(violating, rows - rows / 10);
}

LatencyMatrix make_matrix(std::size_t rows, std::size_t cols, double value) {
  LatencyMatrix matrix;
  matrix.vp_count = cols;
  for (std::size_t r = 0; r < rows; ++r) {
    matrix.ips.push_back(Ipv4(static_cast<std::uint32_t>(r + 1)));
    matrix.server_indices.push_back(r);
  }
  matrix.rtt.assign(rows * cols, value);
  return matrix;
}

TEST_F(FiltersTest, CleanMatrixDropsAllNanRows) {
  // 500 ms everywhere is physically consistent from any vantage geometry
  // (constant *low* RTTs would trip the speed-of-light filter).
  LatencyMatrix matrix = make_matrix(3, vps_->size(), 500.0);
  for (std::size_t c = 0; c < matrix.vp_count; ++c) {
    matrix.rtt[1 * matrix.vp_count + c] = kNoMeasurement;
  }
  FilterConfig config;
  config.min_usable_sites = 5;
  const FilteredMatrix cleaned = clean_matrix(matrix, *vps_, config);
  EXPECT_EQ(cleaned.dropped_unresponsive, 1u);
  ASSERT_EQ(cleaned.kept_rows.size(), 2u);
  EXPECT_EQ(cleaned.kept_rows[0], 0u);
  EXPECT_EQ(cleaned.kept_rows[1], 2u);
  EXPECT_TRUE(cleaned.usable);
}

TEST_F(FiltersTest, CleanMatrixKeepsOnlyFullyResponsiveColumns) {
  LatencyMatrix matrix = make_matrix(2, vps_->size(), 500.0);
  matrix.rtt[0 * matrix.vp_count + 3] = kNoMeasurement;  // col 3 fails row 0
  FilterConfig config;
  config.min_usable_sites = 5;
  const FilteredMatrix cleaned = clean_matrix(matrix, *vps_, config);
  EXPECT_EQ(cleaned.kept_cols.size(), vps_->size() - 1);
  for (const std::size_t col : cleaned.kept_cols) EXPECT_NE(col, 3u);
  // Compact matrix is fully finite.
  for (const double rtt : cleaned.rtt) EXPECT_TRUE(std::isfinite(rtt));
}

TEST_F(FiltersTest, UnusableWhenBelowThreshold) {
  LatencyMatrix matrix = make_matrix(2, vps_->size(), 500.0);
  // Kill most columns on row 0.
  for (std::size_t c = 0; c + 4 < matrix.vp_count; ++c) {
    matrix.rtt[c] = kNoMeasurement;
  }
  FilterConfig config;
  config.min_usable_sites = 10;
  const FilteredMatrix cleaned = clean_matrix(matrix, *vps_, config);
  EXPECT_FALSE(cleaned.usable);
  EXPECT_LT(cleaned.kept_cols.size(), 10u);
}

TEST(CleanMatrix, CompactRowFillsMatchMaterializedRowsOnTinyWorld) {
  // Cleaning without materializing, then reconstructing each compact row
  // with fill_compact_row, must reproduce the materialized cleaned.rtt
  // rows bit for bit, with identical selection decisions -- over every
  // hosting ISP of the tiny scenario's measured matrices.
  const Scenario scenario = Scenario::tiny();
  const Internet net = InternetGenerator(scenario.topology).generate();
  const OffnetRegistry registry =
      DeploymentPolicy(net, scenario.deployment).deploy(Snapshot::k2023);
  const VantagePointSet vps(net, scenario.vantage_points,
                            scenario.vantage_seed);
  const PingMesh mesh(net, vps, scenario.ping);

  std::size_t compared_rows = 0;
  for (const AsIndex isp : registry.hosting_isps()) {
    const LatencyMatrix matrix = mesh.measure_isp(registry, isp);
    const LatencyMatrixRows rows(matrix);
    const FilteredMatrix full =
        clean_matrix(rows, vps, scenario.filter, /*materialize=*/true);
    const FilteredMatrix lean =
        clean_matrix(rows, vps, scenario.filter, /*materialize=*/false);
    ASSERT_EQ(lean.kept_rows, full.kept_rows) << "isp " << isp;
    ASSERT_EQ(lean.kept_cols, full.kept_cols) << "isp " << isp;
    EXPECT_EQ(lean.dropped_unresponsive, full.dropped_unresponsive);
    EXPECT_EQ(lean.dropped_impossible, full.dropped_impossible);
    EXPECT_EQ(lean.nonfinite_leaked, full.nonfinite_leaked);
    EXPECT_EQ(lean.usable, full.usable);
    EXPECT_TRUE(lean.rtt.empty());
    ASSERT_EQ(full.rtt.size(), full.row_count() * full.col_count());

    std::vector<double> row(full.col_count());
    for (std::size_t r = 0; r < full.row_count(); ++r) {
      fill_compact_row(rows, lean, r, row.data());
      for (std::size_t c = 0; c < full.col_count(); ++c) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row[c]),
                  std::bit_cast<std::uint64_t>(full.at(r, c)))
            << "isp " << isp << " cell (" << r << "," << c << ")";
      }
      ++compared_rows;
    }
  }
  EXPECT_GT(compared_rows, 0u);
}

TEST_F(FiltersTest, EmptyMatrixUnusable) {
  LatencyMatrix matrix;
  matrix.vp_count = vps_->size();
  const FilteredMatrix cleaned = clean_matrix(matrix, *vps_, FilterConfig{});
  EXPECT_FALSE(cleaned.usable);
  EXPECT_TRUE(cleaned.kept_rows.empty());
}

TEST_F(FiltersTest, ToleranceSuppressesViolation) {
  const Metro& home = net_->metros.front();
  const Metro* far = nullptr;
  for (const Metro& metro : net_->metros) {
    if (haversine_km(home.location, metro.location) > 8000.0) {
      far = &metro;
      break;
    }
  }
  ASSERT_NE(far, nullptr);
  std::vector<double> rtts(vps_->size());
  for (std::size_t v = 0; v < vps_->size(); ++v) {
    const GeoPoint& loc = v % 2 == 0 ? home.location : far->location;
    rtts[v] = min_rtt_ms((*vps_)[v].location, loc) * 1.05 + 0.5;
  }
  FilterConfig tolerant;
  tolerant.sol_tolerance_ms = 1e6;  // absurd slack: nothing violates
  EXPECT_FALSE(violates_speed_of_light(rtts, *vps_, tolerant));
}

}  // namespace
}  // namespace repro
