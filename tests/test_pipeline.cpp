#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/error.h"

namespace repro {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { pipeline_ = new Pipeline(Scenario::tiny()); }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static Pipeline* pipeline_;
};

Pipeline* PipelineTest::pipeline_ = nullptr;

TEST_F(PipelineTest, WorldBuilt) {
  EXPECT_GT(pipeline_->internet().ases.size(), 100u);
  EXPECT_GT(pipeline_->internet().metros.size(), 50u);
}

TEST_F(PipelineTest, RegistriesCachedAndDistinct) {
  const OffnetRegistry& a = pipeline_->registry(Snapshot::k2023);
  const OffnetRegistry& b = pipeline_->registry(Snapshot::k2023);
  EXPECT_EQ(&a, &b);  // cached
  const OffnetRegistry& earlier = pipeline_->registry(Snapshot::k2021);
  EXPECT_LT(earlier.server_count(), a.server_count());
}

TEST_F(PipelineTest, DiscoveryFindsDeployments) {
  const DiscoveryReport& report =
      pipeline_->discovery(Snapshot::k2023, Methodology::k2023);
  const OffnetRegistry& registry = pipeline_->registry(Snapshot::k2023);
  for (const Hypergiant hg : all_hypergiants()) {
    // Scan misses a percent of endpoints, so discovered <= ground truth and
    // close to it.
    const std::size_t truth = registry.isps_hosting(hg).size();
    const std::size_t found = report.footprint(hg).isp_count();
    EXPECT_LE(found, truth);
    EXPECT_GE(found, truth * 9 / 10);
  }
}

TEST_F(PipelineTest, DiscoveryCached) {
  const DiscoveryReport& a =
      pipeline_->discovery(Snapshot::k2023, Methodology::k2023);
  const DiscoveryReport& b =
      pipeline_->discovery(Snapshot::k2023, Methodology::k2023);
  EXPECT_EQ(&a, &b);
}

TEST_F(PipelineTest, DiscoveryRejects2021SnapshotWith2023Rules) {
  // Table 1 reads the 2021 scan with the 2021 rules only.
  EXPECT_THROW(pipeline_->discovery(Snapshot::k2021, Methodology::k2023),
               Error);
  EXPECT_EQ(pipeline_->discovery(Snapshot::k2021, Methodology::k2021)
                .methodology,
            Methodology::k2021);
}

TEST_F(PipelineTest, ScanRecordsRescanOnEveryCall) {
  // Scan records are discovery's transient input: nothing keeps them, so
  // each call without a store scans a fresh population again.
  const auto scanned = [] {
    return obs::metrics().counter("scan.endpoints_total").value();
  };
  const std::uint64_t before = scanned();
  const TlsEndpoints first = pipeline_->scan_records(Snapshot::k2023);
  const std::uint64_t one_scan = scanned() - before;
  EXPECT_GT(one_scan, 0u);
  EXPECT_EQ(pipeline_->scan_records(Snapshot::k2023), first);
  EXPECT_EQ(scanned() - before, 2 * one_scan);
}

TEST_F(PipelineTest, VantagePointsMatchScenario) {
  EXPECT_EQ(pipeline_->vantage_points().size(),
            pipeline_->scenario().vantage_points);
}

TEST_F(PipelineTest, ClusteringsCoverHostingIsps) {
  const auto& clusterings = pipeline_->clusterings(0.1);
  EXPECT_EQ(clusterings.size(), pipeline_->hosting_isps_2023().size());
  // Both standard xi values are materialized by the shared pass.
  const auto& coarse = pipeline_->clusterings(0.9);
  EXPECT_EQ(coarse.size(), clusterings.size());
}

TEST_F(PipelineTest, ClusteringLookupByIsp) {
  const auto hosting = pipeline_->hosting_isps_2023();
  ASSERT_FALSE(hosting.empty());
  const IspClustering* clustering = pipeline_->clustering_of(0.1, hosting.front());
  ASSERT_NE(clustering, nullptr);
  EXPECT_EQ(clustering->isp, hosting.front());
  // Not a hosting ISP -> no clustering.
  for (const AsIndex isp : pipeline_->internet().access_isps()) {
    if (std::find(hosting.begin(), hosting.end(), isp) == hosting.end()) {
      EXPECT_EQ(pipeline_->clustering_of(0.1, isp), nullptr);
      break;
    }
  }
}

TEST(PipelineXiTest, SpellingsOfOneXiShareOneCachedBatch) {
  // 0.1 + 1e-9 keys like 0.1, so it must land in the standard {0.1, 0.9}
  // batch; a later 0.9 request then answers from the cache instead of
  // recomputing the batch over the vector the first caller still holds.
  EXPECT_EQ(xi_key(0.1 + 1e-9), xi_key(0.1));
  Pipeline pipeline(Scenario::tiny(), fault::FaultPlan::none(), nullptr);
  const IspClustering* first = &pipeline.clusterings(0.1 + 1e-9).front();
  pipeline.clusterings(0.9);
  EXPECT_EQ(&pipeline.clusterings(0.1).front(), first);
}

TEST_F(PipelineTest, TrafficModelsAvailable) {
  const AsIndex isp = pipeline_->hosting_isps_2023().front();
  EXPECT_GT(pipeline_->demand().isp_peak_demand_gbps(isp), 0.0);
  const Hypergiant hg =
      pipeline_->registry(Snapshot::k2023).hypergiants_at(isp).front();
  EXPECT_GT(pipeline_->capacity().offnet_capacity_gbps(isp, hg), 0.0);
}

TEST_F(PipelineTest, RoutingReachesHypergiants) {
  const AsIndex google = pipeline_->internet().as_by_asn(kGoogleAsn);
  const RoutingTable table = pipeline_->routing().routes_to(google);
  for (const AsIndex isp : pipeline_->internet().access_isps()) {
    EXPECT_TRUE(table.entry(isp).reachable);
  }
}

}  // namespace
}  // namespace repro
