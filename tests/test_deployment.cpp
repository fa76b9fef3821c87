#include "hypergiant/deployment.h"

#include <gtest/gtest.h>

#include <set>

#include "topology/generator.h"

namespace repro {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    policy_ = new DeploymentPolicy(*net_, config);
    reg_2021_ = new OffnetRegistry(policy_->deploy(Snapshot::k2021));
    reg_2023_ = new OffnetRegistry(policy_->deploy(Snapshot::k2023));
  }
  static void TearDownTestSuite() {
    delete reg_2023_;
    delete reg_2021_;
    delete policy_;
    delete net_;
  }
  static Internet* net_;
  static DeploymentPolicy* policy_;
  static OffnetRegistry* reg_2021_;
  static OffnetRegistry* reg_2023_;
};

Internet* DeploymentTest::net_ = nullptr;
DeploymentPolicy* DeploymentTest::policy_ = nullptr;
OffnetRegistry* DeploymentTest::reg_2021_ = nullptr;
OffnetRegistry* DeploymentTest::reg_2023_ = nullptr;

TEST(HypergiantProfiles, PaperConstants) {
  EXPECT_NEAR(offnet_serveable_traffic_fraction(Hypergiant::kGoogle), 0.168, 1e-9);
  EXPECT_NEAR(offnet_serveable_traffic_fraction(Hypergiant::kNetflix), 0.0855, 1e-9);
  EXPECT_NEAR(offnet_serveable_traffic_fraction(Hypergiant::kMeta), 0.129, 1e-9);
  EXPECT_NEAR(offnet_serveable_traffic_fraction(Hypergiant::kAkamai), 0.13125, 1e-9);
  double total = 0.0;
  for (const Hypergiant hg : all_hypergiants()) {
    total += offnet_serveable_traffic_fraction(hg);
  }
  // A facility hosting all four can serve ~52% of a user's traffic.
  EXPECT_NEAR(total, 0.52, 0.01);
}

TEST(HypergiantProfiles, Table1Targets) {
  EXPECT_EQ(profile(Hypergiant::kGoogle).isps_2021, 3810);
  EXPECT_EQ(profile(Hypergiant::kGoogle).isps_2023, 4697);
  EXPECT_EQ(profile(Hypergiant::kNetflix).isps_2023, 2906);
  EXPECT_EQ(profile(Hypergiant::kMeta).isps_2023, 2588);
  EXPECT_EQ(profile(Hypergiant::kAkamai).isps_2021,
            profile(Hypergiant::kAkamai).isps_2023);
}

TEST_F(DeploymentTest, FootprintsHitScaledTargets) {
  for (const Hypergiant hg : all_hypergiants()) {
    for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
      const auto target =
          static_cast<std::size_t>(policy_->target_isps_for_year(
              hg, snapshot_year(snapshot)));
      const auto& registry =
          snapshot == Snapshot::k2021 ? *reg_2021_ : *reg_2023_;
      // Eligible pools are larger than targets in the tiny world.
      EXPECT_EQ(registry.isps_hosting(hg).size(), target)
          << to_string(hg) << " " << to_string(snapshot);
    }
  }
}

TEST_F(DeploymentTest, GrowthIsMonotone) {
  for (const Hypergiant hg : all_hypergiants()) {
    const auto isps_2021 = reg_2021_->isps_hosting(hg);
    const auto isps_2023 = reg_2023_->isps_hosting(hg);
    const std::set<AsIndex> later(isps_2023.begin(), isps_2023.end());
    for (const AsIndex isp : isps_2021) {
      EXPECT_TRUE(later.contains(isp))
          << to_string(hg) << ": 2021 host " << isp << " missing in 2023";
    }
  }
}

TEST_F(DeploymentTest, AkamaiFootprintUnchanged) {
  EXPECT_EQ(reg_2021_->isps_hosting(Hypergiant::kAkamai),
            reg_2023_->isps_hosting(Hypergiant::kAkamai));
}

TEST_F(DeploymentTest, ServersLiveInHostIspSpace) {
  for (const OffnetServer& server : reg_2023_->servers()) {
    const As& isp = net_->ases[server.isp];
    EXPECT_TRUE(isp.infra.pool().contains(server.ip)) << isp.name;
    EXPECT_EQ(net_->as_of_ip(server.ip), server.isp);
  }
}

TEST_F(DeploymentTest, ServerIpsUnique) {
  std::set<Ipv4> seen;
  for (const OffnetServer& server : reg_2023_->servers()) {
    EXPECT_TRUE(seen.insert(server.ip).second)
        << "duplicate " << server.ip.to_string();
  }
}

TEST_F(DeploymentTest, SitesMatchServerFacilities) {
  for (const auto& [key, deployment] : reg_2023_->deployments()) {
    (void)key;
    EXPECT_FALSE(deployment.sites.empty());
    EXPECT_GE(deployment.server_indices.size(), 2u);
    for (const std::size_t si : deployment.server_indices) {
      const OffnetServer& server = reg_2023_->servers()[si];
      EXPECT_NE(std::find(deployment.sites.begin(), deployment.sites.end(),
                          server.facility),
                deployment.sites.end());
      EXPECT_EQ(server.isp, deployment.isp);
      EXPECT_EQ(server.hg, deployment.hg);
    }
  }
}

TEST_F(DeploymentTest, FacilitiesAreHostableByIsp) {
  for (const auto& [key, deployment] : reg_2023_->deployments()) {
    (void)key;
    const As& isp = net_->ases[deployment.isp];
    for (const FacilityIndex fi : deployment.sites) {
      const Facility& facility = net_->facilities[fi];
      // Either a colo in a metro of presence or the ISP's own facility.
      const bool own = facility.owner_asn == isp.asn;
      const bool in_presence_metro =
          std::find(isp.metros.begin(), isp.metros.end(), facility.metro) !=
          isp.metros.end();
      EXPECT_TRUE(own || in_presence_metro) << isp.name;
    }
  }
}

TEST_F(DeploymentTest, RegistryHelpersConsistent) {
  const auto hosting = reg_2023_->hosting_isps();
  EXPECT_FALSE(hosting.empty());
  EXPECT_TRUE(std::is_sorted(hosting.begin(), hosting.end()));
  std::size_t total_servers = 0;
  for (const AsIndex isp : hosting) {
    const auto hgs = reg_2023_->hypergiants_at(isp);
    EXPECT_FALSE(hgs.empty());
    for (const Hypergiant hg : hgs) {
      EXPECT_NE(reg_2023_->find_deployment(isp, hg), nullptr);
    }
    total_servers += reg_2023_->servers_at(isp).size();
  }
  EXPECT_EQ(total_servers, reg_2023_->server_count());
}

TEST_F(DeploymentTest, FacilityMapCoversAllHostedHgs) {
  for (const AsIndex isp : reg_2023_->hosting_isps()) {
    const auto map = reg_2023_->facility_map(isp);
    std::set<Hypergiant> seen;
    for (const auto& [facility, hgs] : map) {
      (void)facility;
      seen.insert(hgs.begin(), hgs.end());
    }
    const auto hosted = reg_2023_->hypergiants_at(isp);
    EXPECT_EQ(seen.size(), hosted.size());
  }
}

TEST_F(DeploymentTest, DeterministicAcrossRuns) {
  const OffnetRegistry again = policy_->deploy(Snapshot::k2023);
  ASSERT_EQ(again.server_count(), reg_2023_->server_count());
  for (std::size_t i = 0; i < again.server_count(); ++i) {
    EXPECT_EQ(again.servers()[i].ip, reg_2023_->servers()[i].ip);
    EXPECT_EQ(again.servers()[i].facility, reg_2023_->servers()[i].facility);
    EXPECT_EQ(again.servers()[i].rack, reg_2023_->servers()[i].rack);
  }
}

TEST_F(DeploymentTest, MostMultiHgIspsColocateSomewhere) {
  // The paper: 81-95% of ISPs hosting multiple hypergiants colocate them.
  std::size_t multi = 0;
  std::size_t colocated = 0;
  for (const AsIndex isp : reg_2023_->hosting_isps()) {
    if (reg_2023_->hypergiants_at(isp).size() < 2) continue;
    ++multi;
    for (const auto& [facility, hgs] : reg_2023_->facility_map(isp)) {
      (void)facility;
      if (hgs.size() >= 2) {
        ++colocated;
        break;
      }
    }
  }
  ASSERT_GT(multi, 10u);
  const double fraction = static_cast<double>(colocated) / multi;
  EXPECT_GE(fraction, 0.75);
  EXPECT_LE(fraction, 1.0);
}

}  // namespace
}  // namespace repro
