#include "core/analyses.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace repro {
namespace {

class LongitudinalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { pipeline_ = new Pipeline(Scenario::tiny()); }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
};

Pipeline* LongitudinalTest::pipeline_ = nullptr;

TEST_F(LongitudinalTest, YearTargetsAnchorOnTable1) {
  // The growth curve passes through both Table-1 anchors exactly, at the
  // world's footprint scale and at scales from well below tiny to 10x.
  for (const double scale :
       {pipeline_->scenario().deployment.footprint_scale, 0.02, 0.15, 1.0,
        10.0}) {
    DeploymentConfig config = pipeline_->scenario().deployment;
    config.footprint_scale = scale;
    const DeploymentPolicy policy(pipeline_->internet(), config);
    const auto anchor = [scale](int isps) {
      return std::max(1, static_cast<int>(std::lround(isps * scale)));
    };
    for (const Hypergiant hg : all_hypergiants()) {
      EXPECT_EQ(policy.target_isps_for_year(hg, 2021),
                anchor(profile(hg).isps_2021))
          << to_string(hg) << " at scale " << scale;
      EXPECT_EQ(policy.target_isps_for_year(hg, 2023),
                anchor(profile(hg).isps_2023))
          << to_string(hg) << " at scale " << scale;
    }
  }
}

TEST_F(LongitudinalTest, AkamaiFlatOthersGrow) {
  const DeploymentPolicy policy(pipeline_->internet(),
                                pipeline_->scenario().deployment);
  for (int year = 2017; year <= 2025; ++year) {
    EXPECT_EQ(policy.target_isps_for_year(Hypergiant::kAkamai, year),
              policy.target_isps_for_year(Hypergiant::kAkamai, year - 1));
    for (const Hypergiant hg :
         {Hypergiant::kGoogle, Hypergiant::kNetflix, Hypergiant::kMeta}) {
      EXPECT_GE(policy.target_isps_for_year(hg, year),
                policy.target_isps_for_year(hg, year - 1))
          << to_string(hg) << " " << year;
    }
  }
}

TEST_F(LongitudinalTest, FootprintsMonotoneOverYears) {
  const DeploymentPolicy policy(pipeline_->internet(),
                                pipeline_->scenario().deployment);
  for (const Hypergiant hg : all_hypergiants()) {
    const auto earlier = policy.footprint_for_year(hg, 2018);
    const auto later = policy.footprint_for_year(hg, 2024);
    ASSERT_LE(earlier.size(), later.size());
    // Adoption order is stable, so earlier is a prefix of later.
    for (std::size_t i = 0; i < earlier.size(); ++i) {
      EXPECT_EQ(earlier[i], later[i]) << to_string(hg);
    }
  }
}

TEST_F(LongitudinalTest, CohostingIncreasesMonotonically) {
  const LongitudinalStudy study = longitudinal_study(*pipeline_, 2016, 2025);
  ASSERT_EQ(study.rows.size(), 10u);
  for (std::size_t i = 1; i < study.rows.size(); ++i) {
    EXPECT_GE(study.rows[i].isps_ge2, study.rows[i - 1].isps_ge2);
    EXPECT_GE(study.rows[i].isps_ge3, study.rows[i - 1].isps_ge3);
    EXPECT_GE(study.rows[i].isps_eq4, study.rows[i - 1].isps_eq4);
    EXPECT_GE(study.rows[i].mean_hypergiants_per_hosting_isp,
              study.rows[i - 1].mean_hypergiants_per_hosting_isp - 1e-9);
  }
}

TEST_F(LongitudinalTest, RowInternalConsistency) {
  const LongitudinalStudy study = longitudinal_study(*pipeline_, 2020, 2023);
  for (const LongitudinalRow& row : study.rows) {
    EXPECT_GE(row.hosting_isps, row.isps_ge2);
    EXPECT_GE(row.isps_ge2, row.isps_ge3);
    EXPECT_GE(row.isps_ge3, row.isps_eq4);
    EXPECT_GE(row.mean_hypergiants_per_hosting_isp, 1.0);
    EXPECT_LE(row.mean_hypergiants_per_hosting_isp, 4.0);
    std::size_t max_single = 0;
    for (const std::size_t count : row.isps_per_hg) {
      max_single = std::max(max_single, count);
    }
    EXPECT_GE(row.hosting_isps, max_single);
  }
}

TEST_F(LongitudinalTest, RenderShowsAllYears) {
  const std::string out = render(longitudinal_study(*pipeline_, 2019, 2021));
  EXPECT_NE(out.find("2019"), std::string::npos);
  EXPECT_NE(out.find("2021"), std::string::npos);
}

}  // namespace
}  // namespace repro
