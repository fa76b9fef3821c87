#include "scan/classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "hypergiant/background.h"
#include "obs/metrics.h"
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
    population_ = new TlsEndpoints(
        build_tls_population(*net_, *registry_, Snapshot::k2023, population));
  }
  static void TearDownTestSuite() {
    delete population_;
    delete registry_;
    delete net_;
  }
  static Internet* net_;
  static OffnetRegistry* registry_;
  static TlsEndpoints* population_;
};

Internet* ScanTest::net_ = nullptr;
OffnetRegistry* ScanTest::registry_ = nullptr;
TlsEndpoints* ScanTest::population_ = nullptr;

TEST_F(ScanTest, PopulationContainsAllGroundTruthServers) {
  for (const OffnetServer& server : registry_->servers()) {
    EXPECT_TRUE(std::ranges::binary_search(population_->endpoints, server.ip,
                                           {}, &TlsEndpoint::ip));
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
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a.endpoints[i - 1].ip, a.endpoints[i].ip);
  }
  EXPECT_EQ(a, b);
}

TEST_F(ScanTest, ScannerRejectsUnsortedPopulation) {
  TlsEndpoints reversed = *population_;
  std::ranges::reverse(reversed.endpoints);
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

// ------------------------------------------------------ Interning fence --

/// The per-record classification interning replaced: every record's
/// expanded certificate is matched on its own. Footprints and the counts
/// the classifier publishes, under its counter names.
struct ExpandedDiscovery {
  std::array<std::map<AsIndex, std::vector<Ipv4>>, kHypergiantCount> by_isp;
  std::map<std::string, std::uint64_t> counters;
};

ExpandedDiscovery classify_expanded(
    const Internet& internet,
    const std::vector<std::pair<Ipv4, TlsCertificate>>& records,
    Methodology methodology) {
  ExpandedDiscovery out;
  std::set<AsIndex> hg_ases;
  for (const Hypergiant hg : all_hypergiants()) {
    hg_ases.insert(internet.as_by_asn(profile(hg).asn));
    out.counters["certs.matched." + std::string(to_string(hg))] = 0;
  }
  out.counters["classify.records_unrouted"] = 0;
  out.counters["classify.records_in_hypergiant_as"] = 0;
  for (const auto& [ip, cert] : records) {
    const auto owner = internet.as_of_ip(ip);
    if (!owner) {
      ++out.counters["classify.records_unrouted"];
      continue;
    }
    if (hg_ases.contains(*owner)) {
      ++out.counters["classify.records_in_hypergiant_as"];
      continue;
    }
    for (const Hypergiant hg : all_hypergiants()) {
      if (!certificate_matches(cert, hg, methodology)) continue;
      ++out.counters["certs.matched." + std::string(to_string(hg))];
      out.by_isp[static_cast<std::size_t>(hg)][*owner].push_back(ip);
    }
  }
  return out;
}

/// The certs.matched.* and classify.* counters, by name.
std::map<std::string, std::uint64_t> classify_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    if (name.starts_with("certs.matched.") || name.starts_with("classify.")) {
      out[name] = value;
    }
  }
  return out;
}

/// Classifying a pipeline's interned scans (once per distinct certificate)
/// gives exactly what classifying every record's expanded certificate
/// gives, for each methodology a snapshot is read with.
void expect_interned_classify_matches_expanded(const fault::FaultPlan& plan) {
  const Pipeline pipeline(Scenario::tiny(), plan, nullptr);
  const std::vector<std::pair<Snapshot, std::vector<Methodology>>> reads = {
      {Snapshot::k2021, {Methodology::k2021}},
      {Snapshot::k2023, {Methodology::k2023, Methodology::k2021}}};
  for (const auto& [snapshot, methodologies] : reads) {
    const TlsEndpoints records = pipeline.scan_records(snapshot);
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.size(), records.endpoints.size());
    EXPECT_LT(records.certs.size(), records.size());
    EXPECT_EQ(std::set<TlsCertificate>(records.certs.begin(),
                                       records.certs.end())
                  .size(),
              records.certs.size())
        << "duplicate template in the " << to_string(snapshot) << " table";

    std::vector<std::pair<Ipv4, TlsCertificate>> expanded;
    for (const TlsEndpoint& record : records.endpoints) {
      expanded.emplace_back(record.ip, records.cert_of(record));
    }
    for (const Methodology methodology : methodologies) {
      const std::string context = std::string(to_string(snapshot)) +
                                  " scan, " +
                                  std::string(to_string(methodology)) +
                                  " rules";
      const std::map<std::string, std::uint64_t> before = classify_counters();
      const DiscoveryReport report =
          OffnetClassifier(pipeline.internet(), methodology).classify(records);
      std::map<std::string, std::uint64_t> deltas = classify_counters();
      for (auto& [name, value] : deltas) {
        if (const auto it = before.find(name); it != before.end()) {
          value -= it->second;
        }
      }
      const ExpandedDiscovery want =
          classify_expanded(pipeline.internet(), expanded, methodology);
      EXPECT_EQ(deltas, want.counters) << context;
      for (const Hypergiant hg : all_hypergiants()) {
        EXPECT_EQ(report.footprint(hg).by_isp,
                  want.by_isp[static_cast<std::size_t>(hg)])
            << to_string(hg) << ", " << context;
      }
      EXPECT_GT(report.total_offnet_ips(), 0u) << context;
    }
  }
}

TEST(InternedScan, ClassifyMatchesExpandedRecordsClean) {
  expect_interned_classify_matches_expanded(fault::FaultPlan::none());
}

TEST(InternedScan, ClassifyMatchesExpandedRecordsUnderChaos) {
  expect_interned_classify_matches_expanded(fault::FaultPlan::chaos());
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
