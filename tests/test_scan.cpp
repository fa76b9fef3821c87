#include "scan/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hypergiant/background.h"
#include "scan/scanner.h"
#include "topology/generator.h"

namespace repro {
namespace {

class ScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    registry_ = new OffnetRegistry(
        DeploymentPolicy(*net_, config).deploy(Snapshot::k2023));
    PopulationConfig population;
    population.onnet_servers_per_hg = 25;
    population.decoy_count = 20;
    population_ = new std::vector<TlsEndpoint>(
        build_tls_population(*net_, *registry_, Snapshot::k2023, population));
  }
  static void TearDownTestSuite() {
    delete population_;
    delete registry_;
    delete net_;
  }
  static Internet* net_;
  static OffnetRegistry* registry_;
  static std::vector<TlsEndpoint>* population_;
};

Internet* ScanTest::net_ = nullptr;
OffnetRegistry* ScanTest::registry_ = nullptr;
std::vector<TlsEndpoint>* ScanTest::population_ = nullptr;

TEST_F(ScanTest, PopulationContainsAllGroundTruthServers) {
  for (const OffnetServer& server : registry_->servers()) {
    EXPECT_TRUE(std::ranges::binary_search(*population_, server.ip, {},
                                           &TlsEndpoint::ip));
  }
  // Plus onnet + background + decoys beyond the offnet population.
  EXPECT_GT(population_->size(), registry_->server_count());
}

TEST_F(ScanTest, ScannerMissRateZeroSeesEverything) {
  ScannerConfig config;
  config.miss_rate = 0.0;
  const auto records = Scanner(config).scan(*population_);
  EXPECT_EQ(records.size(), population_->size());
}

TEST_F(ScanTest, ScannerMissRateApproximate) {
  ScannerConfig config;
  config.miss_rate = 0.2;
  const auto records = Scanner(config).scan(*population_);
  const double observed =
      1.0 - static_cast<double>(records.size()) / population_->size();
  EXPECT_NEAR(observed, 0.2, 0.03);
}

TEST_F(ScanTest, ScannerOutputSortedDeterministic) {
  ScannerConfig config;
  const auto a = Scanner(config).scan(*population_);
  const auto b = Scanner(config).scan(*population_);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1].ip, a[i].ip);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].ip, b[i].ip);
}

TEST_F(ScanTest, ScannerRejectsUnsortedPopulation) {
  std::vector<TlsEndpoint> reversed(population_->rbegin(),
                                    population_->rend());
  EXPECT_THROW(Scanner(ScannerConfig{}).scan(std::move(reversed)), Error);
}

TEST_F(ScanTest, ClassifierRecallAndPrecisionPerfectWithoutMisses) {
  ScannerConfig config;
  config.miss_rate = 0.0;
  const auto records = Scanner(config).scan(*population_);
  const DiscoveryReport report =
      OffnetClassifier(*net_, Methodology::k2023).classify(records);

  // Ground truth sets per hypergiant.
  for (const Hypergiant hg : all_hypergiants()) {
    std::set<Ipv4> truth;
    for (const OffnetServer& server : registry_->servers()) {
      if (server.hg == hg) truth.insert(server.ip);
    }
    std::set<Ipv4> found;
    for (const auto& [isp, ips] : report.footprint(hg).by_isp) {
      (void)isp;
      found.insert(ips.begin(), ips.end());
    }
    EXPECT_EQ(found, truth) << to_string(hg);
  }
}

TEST_F(ScanTest, ClassifierAttributesToCorrectIsp) {
  ScannerConfig config;
  config.miss_rate = 0.0;
  const auto records = Scanner(config).scan(*population_);
  const DiscoveryReport report =
      OffnetClassifier(*net_, Methodology::k2023).classify(records);
  for (const Hypergiant hg : all_hypergiants()) {
    const auto hosting = registry_->isps_hosting(hg);
    std::set<AsIndex> truth_isps(hosting.begin(), hosting.end());
    std::set<AsIndex> found_isps;
    for (const auto& [isp, ips] : report.footprint(hg).by_isp) {
      (void)ips;
      found_isps.insert(isp);
    }
    EXPECT_EQ(found_isps, truth_isps) << to_string(hg);
  }
}

TEST_F(ScanTest, OnnetServersExcluded) {
  ScannerConfig config;
  config.miss_rate = 0.0;
  const auto records = Scanner(config).scan(*population_);
  const DiscoveryReport report =
      OffnetClassifier(*net_, Methodology::k2023).classify(records);
  for (const Hypergiant hg : all_hypergiants()) {
    const AsIndex hg_as = net_->as_by_asn(profile(hg).asn);
    for (const auto& footprint : report.footprints) {
      EXPECT_FALSE(footprint.by_isp.contains(hg_as))
          << "onnet servers of " << to_string(hg) << " leaked into discovery";
    }
  }
}

TEST_F(ScanTest, OutdatedMethodologyMissesGoogleAndMeta) {
  ScannerConfig config;
  config.miss_rate = 0.0;
  const auto records = Scanner(config).scan(*population_);
  const DiscoveryReport old_report =
      OffnetClassifier(*net_, Methodology::k2021).classify(records);
  EXPECT_EQ(old_report.footprint(Hypergiant::kGoogle).ip_count(), 0u);
  EXPECT_EQ(old_report.footprint(Hypergiant::kMeta).ip_count(), 0u);
  // Netflix and Akamai unaffected by the convention changes.
  EXPECT_GT(old_report.footprint(Hypergiant::kNetflix).ip_count(), 0u);
  EXPECT_GT(old_report.footprint(Hypergiant::kAkamai).ip_count(), 0u);
}

TEST_F(ScanTest, HostingCountsMonotone) {
  ScannerConfig config;
  const auto records = Scanner(config).scan(*population_);
  const DiscoveryReport report =
      OffnetClassifier(*net_, Methodology::k2023).classify(records);
  const auto ge1 = report.isps_hosting_at_least(1).size();
  const auto ge2 = report.isps_hosting_at_least(2).size();
  const auto ge3 = report.isps_hosting_at_least(3).size();
  const auto ge4 = report.isps_hosting_at_least(4).size();
  EXPECT_GE(ge1, ge2);
  EXPECT_GE(ge2, ge3);
  EXPECT_GE(ge3, ge4);
  EXPECT_GT(ge1, 0u);
}

TEST_F(ScanTest, HypergiantsAtConsistentWithFootprints) {
  ScannerConfig config;
  const auto records = Scanner(config).scan(*population_);
  const DiscoveryReport report =
      OffnetClassifier(*net_, Methodology::k2023).classify(records);
  for (const AsIndex isp : report.isps_hosting_at_least(1)) {
    int count = 0;
    for (const Hypergiant hg : all_hypergiants()) {
      if (report.footprint(hg).by_isp.contains(isp)) ++count;
    }
    EXPECT_EQ(report.hypergiants_at(isp), count);
  }
}

TEST(ScannerConfigValidation, RejectsBadMissRate) {
  ScannerConfig config;
  config.miss_rate = 1.0;
  EXPECT_THROW(Scanner{config}, Error);
  config.miss_rate = -0.1;
  EXPECT_THROW(Scanner{config}, Error);
}

}  // namespace
}  // namespace repro
