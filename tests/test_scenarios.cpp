#include "traffic/scenarios.h"

#include <gtest/gtest.h>

#include "topology/generator.h"

namespace repro {
namespace {

TEST(CovidSurge, ReproducesPaperArithmetic) {
  // Paper (Section 4.1): offnets served 63% before lockdown; demand grew
  // 58%; offnet traffic rose only ~20% while interdomain more than doubled.
  const CovidSurgeResult result = covid_surge(CovidSurgeInput{});
  EXPECT_NEAR(result.offnet_increase_fraction(), 0.20, 0.005);
  EXPECT_GT(result.interdomain_multiplier(), 2.0);
  EXPECT_NEAR(result.interdomain_multiplier(), 2.23, 0.02);
}

TEST(CovidSurge, AmpleHeadroomAbsorbsSurge) {
  CovidSurgeInput input;
  input.offnet_headroom = 10.0;  // plenty of capacity
  const CovidSurgeResult result = covid_surge(input);
  // Offnets absorb up to cache efficiency; interdomain grows mildly.
  EXPECT_GT(result.offnet_increase_fraction(), 0.5);
  EXPECT_LT(result.interdomain_multiplier(), 2.0);
}

TEST(CovidSurge, NoSurgeNoChange) {
  CovidSurgeInput input;
  input.surge_multiplier = 1.0;
  const CovidSurgeResult result = covid_surge(input);
  EXPECT_NEAR(result.offnet_after, result.offnet_before, 1e-9);
  EXPECT_NEAR(result.interdomain_multiplier(), 1.0, 1e-9);
}

TEST(CovidSurge, Validation) {
  CovidSurgeInput input;
  input.offnet_share_before = 0.0;
  EXPECT_THROW(covid_surge(input), Error);
  input = CovidSurgeInput{};
  input.surge_multiplier = 0.5;
  EXPECT_THROW(covid_surge(input), Error);
}

TEST(DiurnalStudy, PeakShiftsTrafficToDistantServers) {
  const auto points = diurnal_study(DiurnalStudyConfig{});
  ASSERT_EQ(points.size(), 24u);
  // Find trough and peak hours by demand.
  const auto peak = std::max_element(
      points.begin(), points.end(),
      [](const DiurnalPoint& a, const DiurnalPoint& b) {
        return a.total_demand < b.total_demand;
      });
  const auto trough = std::min_element(
      points.begin(), points.end(),
      [](const DiurnalPoint& a, const DiurnalPoint& b) {
        return a.total_demand < b.total_demand;
      });
  // The paper's observation: at peak, a higher fraction comes from distant
  // servers because the local offnets saturate.
  EXPECT_GT(peak->far_fraction, trough->far_fraction);
  EXPECT_GT(trough->near_fraction, 0.5);
  for (const DiurnalPoint& point : points) {
    EXPECT_NEAR(point.near_fraction + point.far_fraction, 1.0, 1e-9);
  }
}

TEST(DiurnalStudy, GenerousOffnetNeverSaturates) {
  DiurnalStudyConfig config;
  config.offnet_headroom = 5.0;
  const auto points = diurnal_study(config);
  double near_min = 1.0;
  double near_max = 0.0;
  for (const DiurnalPoint& point : points) {
    near_min = std::min(near_min, point.near_fraction);
    near_max = std::max(near_max, point.near_fraction);
  }
  // Without saturation the near share is constant across the day.
  EXPECT_NEAR(near_min, near_max, 1e-9);
}

TEST(DiurnalStudy, Validation) {
  DiurnalStudyConfig config;
  config.apartments = 0;
  EXPECT_THROW(diurnal_study(config), Error);
}

class TrafficStudies : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    registry_ = new OffnetRegistry(
        DeploymentPolicy(*net_, config).deploy(Snapshot::k2023));
    demand_ = new DemandModel(*net_);
    capacity_ = new CapacityModel(*net_, *registry_, *demand_, CapacityConfig{});
  }
  static void TearDownTestSuite() {
    delete capacity_;
    delete demand_;
    delete registry_;
    delete net_;
  }
  static Internet* net_;
  static OffnetRegistry* registry_;
  static DemandModel* demand_;
  static CapacityModel* capacity_;
};

Internet* TrafficStudies::net_ = nullptr;
OffnetRegistry* TrafficStudies::registry_ = nullptr;
DemandModel* TrafficStudies::demand_ = nullptr;
CapacityModel* TrafficStudies::capacity_ = nullptr;

TEST_F(TrafficStudies, PniUtilizationFieldsConsistent) {
  for (const Hypergiant hg : all_hypergiants()) {
    const PniUtilizationStats stats =
        pni_utilization(*net_, *demand_, *capacity_, hg);
    EXPECT_EQ(stats.hg, hg);
    EXPECT_GE(stats.fraction_exceeded, 0.0);
    EXPECT_LE(stats.fraction_exceeded, 1.0);
    EXPECT_GE(stats.fraction_demand_2x, 0.0);
    EXPECT_LE(stats.fraction_demand_2x, stats.fraction_exceeded + 1e-9);
    EXPECT_GE(stats.mean_peak_exceedance, 0.0);
    EXPECT_GT(stats.isps_with_pni, 0u);
  }
}

TEST_F(TrafficStudies, SomePnisAreUnderProvisioned) {
  // The generator provisions PNIs with a heavy lower tail: at least some
  // should be exceeded at peak (the Section 4.2.2 claim).
  bool any = false;
  for (const Hypergiant hg : all_hypergiants()) {
    const PniUtilizationStats stats =
        pni_utilization(*net_, *demand_, *capacity_, hg);
    if (stats.fraction_exceeded > 0.0) any = true;
  }
  EXPECT_TRUE(any);
}

TEST_F(TrafficStudies, CascadeStudyPicksBusiestFacility) {
  for (const AsIndex isp : registry_->hosting_isps()) {
    if (registry_->hypergiants_at(isp).size() < 2) continue;
    const CascadeOutcome outcome =
        cascade_study(*net_, *registry_, *demand_, *capacity_, isp);
    ASSERT_NE(outcome.failed_facility, kInvalidIndex);
    // No other facility hosts more hypergiants.
    for (const auto& [facility, hgs] : registry_->facility_map(isp)) {
      (void)facility;
      EXPECT_LE(static_cast<int>(hgs.size()), outcome.hypergiants_in_facility);
    }
    // Failure can only push more traffic interdomain.
    double inter_base = 0.0;
    double inter_fail = 0.0;
    for (const Hypergiant hg : all_hypergiants()) {
      inter_base += outcome.baseline.flow(hg).interdomain();
      inter_fail += outcome.failure.flow(hg).interdomain();
    }
    EXPECT_GE(inter_fail, inter_base - 1e-9);
    EXPECT_GE(outcome.collateral_degradation(), -1e-9);
    return;
  }
  GTEST_SKIP() << "no multi-hypergiant ISP in tiny world";
}

}  // namespace
}  // namespace repro
