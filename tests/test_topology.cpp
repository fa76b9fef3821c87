#include "topology/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "topology/country.h"

namespace repro {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
  }
  static void TearDownTestSuite() {
    delete net_;
    net_ = nullptr;
  }
  static Internet* net_;
};

Internet* TopologyTest::net_ = nullptr;

TEST(CountryDb, NonEmptyAndQueryable) {
  EXPECT_GE(all_countries().size(), 90u);
  const CountryInfo& us = country_by_code("US");
  EXPECT_EQ(us.name, "United States");
  EXPECT_GT(us.internet_users_m, 100.0);
  EXPECT_THROW(country_by_code("XX"), NotFoundError);
  EXPECT_GT(total_internet_users_m(), 3000.0);
}

TEST(CountryDb, AllEntriesValid) {
  for (const CountryInfo& country : all_countries()) {
    EXPECT_EQ(country.code.size(), 2u);
    EXPECT_FALSE(country.name.empty());
    EXPECT_GT(country.internet_users_m, 0.0);
    EXPECT_GE(country.centroid.latitude_deg, -90.0);
    EXPECT_LE(country.centroid.latitude_deg, 90.0);
    EXPECT_GE(country.centroid.longitude_deg, -180.0);
    EXPECT_LE(country.centroid.longitude_deg, 180.0);
  }
}

TEST(CountryDb, CodesUnique) {
  std::set<std::string_view> codes;
  for (const CountryInfo& country : all_countries()) codes.insert(country.code);
  EXPECT_EQ(codes.size(), all_countries().size());
}

TEST_F(TopologyTest, EveryCountryHasAMetro) {
  std::set<CountryIndex> with_metro;
  for (const Metro& metro : net_->metros) with_metro.insert(metro.country);
  EXPECT_EQ(with_metro.size(), all_countries().size());
}

TEST_F(TopologyTest, MetroUsersSumToCountryUsers) {
  std::vector<double> per_country(all_countries().size(), 0.0);
  for (const Metro& metro : net_->metros) per_country[metro.country] += metro.users;
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    EXPECT_NEAR(per_country[ci], all_countries()[ci].internet_users_m * 1e6,
                all_countries()[ci].internet_users_m * 1e6 * 1e-6);
  }
}

TEST_F(TopologyTest, EveryMetroHasColocation) {
  for (const Metro& metro : net_->metros) {
    bool found = false;
    for (const Facility& facility : net_->facilities) {
      if (facility.metro == metro.index &&
          facility.kind == FacilityKind::kColocation) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << metro.name;
  }
}

TEST_F(TopologyTest, TiersPresent) {
  int tier1 = 0;
  int transit = 0;
  int access = 0;
  int hypergiant = 0;
  for (const As& as : net_->ases) {
    switch (as.tier) {
      case AsTier::kTier1: ++tier1; break;
      case AsTier::kTransit: ++transit; break;
      case AsTier::kAccess: ++access; break;
      case AsTier::kHypergiant: ++hypergiant; break;
    }
  }
  EXPECT_EQ(tier1, GeneratorConfig::tiny().tier1_count);
  EXPECT_GT(transit, 50);
  EXPECT_GT(access, 150);
  EXPECT_EQ(hypergiant, 4);
}

TEST_F(TopologyTest, HypergiantsHaveWellKnownAsns) {
  for (const AsNumber asn : {kGoogleAsn, kNetflixAsn, kMetaAsn, kAkamaiAsn}) {
    const AsIndex index = net_->as_by_asn(asn);
    EXPECT_EQ(net_->ases[index].tier, AsTier::kHypergiant);
  }
  EXPECT_THROW(net_->as_by_asn(4294900000u), NotFoundError);
}

TEST_F(TopologyTest, PrimaryMetroIsAPresenceMetro) {
  for (const As& as : net_->ases) {
    EXPECT_NE(as.primary_metro, kInvalidIndex) << as.name;
    EXPECT_NE(std::find(as.metros.begin(), as.metros.end(), as.primary_metro),
              as.metros.end())
        << as.name;
  }
}

TEST_F(TopologyTest, AccessIspsHaveUsersProvidersAndSpace) {
  for (const AsIndex isp : net_->access_isps()) {
    const As& as = net_->ases[isp];
    EXPECT_GT(as.users, 0.0) << as.name;
    EXPECT_FALSE(as.provider_links.empty()) << as.name;
    EXPECT_FALSE(as.user_prefixes.empty()) << as.name;
    EXPECT_GT(as.infra.pool().size(), 0u) << as.name;
    EXPECT_FALSE(as.facilities.empty()) << as.name;
  }
}

TEST_F(TopologyTest, AccessUsersMatchCountryTotalsRoughly) {
  // Zipf shares are normalized, so ISP users should sum to country users.
  std::vector<double> per_country(all_countries().size(), 0.0);
  for (const AsIndex isp : net_->access_isps()) {
    per_country[net_->ases[isp].country] += net_->ases[isp].users;
  }
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    const double expected = all_countries()[ci].internet_users_m * 1e6;
    EXPECT_NEAR(per_country[ci], expected, expected * 0.01);
  }
}

TEST_F(TopologyTest, LinksWiredIntoBothEndpoints) {
  for (const InterdomainLink& link : net_->links) {
    const As& a = net_->ases[link.a];
    const As& b = net_->ases[link.b];
    if (link.kind == LinkKind::kTransit) {
      EXPECT_NE(std::find(a.provider_links.begin(), a.provider_links.end(),
                          link.index),
                a.provider_links.end());
      EXPECT_NE(std::find(b.customer_links.begin(), b.customer_links.end(),
                          link.index),
                b.customer_links.end());
    } else {
      EXPECT_NE(std::find(a.peer_links.begin(), a.peer_links.end(), link.index),
                a.peer_links.end());
      EXPECT_NE(std::find(b.peer_links.begin(), b.peer_links.end(), link.index),
                b.peer_links.end());
    }
    EXPECT_GT(link.capacity_gbps, 0.0);
  }
}

TEST_F(TopologyTest, TransitLinksPointUpward) {
  // Customers are never higher-tier than their providers.
  const auto rank = [](AsTier tier) {
    switch (tier) {
      case AsTier::kTier1: return 3;
      case AsTier::kTransit: return 2;
      case AsTier::kHypergiant: return 2;
      case AsTier::kAccess: return 1;
    }
    return 0;
  };
  for (const InterdomainLink& link : net_->links) {
    if (link.kind != LinkKind::kTransit) continue;
    EXPECT_LE(rank(net_->ases[link.a].tier), rank(net_->ases[link.b].tier));
  }
}

TEST_F(TopologyTest, AnnouncedSpaceResolvesToOwner) {
  for (const AsIndex isp : net_->access_isps()) {
    const As& as = net_->ases[isp];
    EXPECT_EQ(net_->as_of_ip(as.infra.pool().at(10)), isp);
    EXPECT_EQ(net_->as_of_ip(as.user_prefixes.front().at(0)), isp);
  }
}

TEST_F(TopologyTest, IxpPortsRegistered) {
  for (const Ixp& ixp : net_->ixps) {
    EXPECT_FALSE(ixp.members.empty()) << ixp.name;
    std::size_t registered = 0;
    for (std::uint64_t offset = 0; offset < ixp.peering_lan.size(); ++offset) {
      const auto info = net_->ixp_port_of_ip(ixp.peering_lan.at(offset));
      if (!info) continue;
      EXPECT_EQ(info->ixp, ixp.index);
      ++registered;
    }
    EXPECT_GE(registered, ixp.members.size());
  }
}

TEST_F(TopologyTest, HostingOptionsIncludeColos) {
  for (const AsIndex isp : net_->access_isps()) {
    const As& as = net_->ases[isp];
    const auto options = net_->hosting_options(isp, as.primary_metro);
    EXPECT_FALSE(options.empty());
    for (const FacilityIndex fi : options) {
      EXPECT_EQ(net_->facilities[fi].metro, as.primary_metro);
    }
  }
}

TEST_F(TopologyTest, PeeringLookupSymmetric) {
  for (const InterdomainLink& link : net_->links) {
    if (link.kind == LinkKind::kTransit) continue;
    EXPECT_TRUE(net_->has_peering(link.a, link.b));
    EXPECT_TRUE(net_->has_peering(link.b, link.a));
  }
}

TEST_F(TopologyTest, PeeringPairIndexMatchesAdjacencyScan) {
  // For every ordered AS pair, the O(1) pair index must equal a scan of the
  // first AS's peer links: ascending, parallel links included, and empty
  // (has_peering false) for a pair that does not peer.
  const std::size_t n = net_->ases.size();
  std::size_t parallel_pairs = 0;
  for (AsIndex a = 0; a < n; ++a) {
    std::vector<std::vector<LinkIndex>> scan(n);
    for (const LinkIndex li : net_->ases[a].peer_links) {
      const InterdomainLink& link = net_->links[li];
      scan[link.a == a ? link.b : link.a].push_back(li);
    }
    for (AsIndex b = 0; b < n; ++b) {
      const auto indexed = net_->peering_links_between(a, b);
      ASSERT_EQ(std::vector<LinkIndex>(indexed.begin(), indexed.end()), scan[b])
          << a << " <-> " << b;
      ASSERT_EQ(net_->has_peering(a, b), !scan[b].empty());
      if (a < b && scan[b].size() > 1) ++parallel_pairs;
    }
  }
  EXPECT_GT(parallel_pairs, 0u);
}

TEST(TopologyDeterminism, SameSeedSameWorld) {
  const Internet a = InternetGenerator(GeneratorConfig::tiny()).generate();
  const Internet b = InternetGenerator(GeneratorConfig::tiny()).generate();
  ASSERT_EQ(a.ases.size(), b.ases.size());
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.ases.size(); ++i) {
    EXPECT_EQ(a.ases[i].asn, b.ases[i].asn);
    EXPECT_DOUBLE_EQ(a.ases[i].users, b.ases[i].users);
    EXPECT_EQ(a.ases[i].primary_metro, b.ases[i].primary_metro);
  }
}

TEST(TopologyDeterminism, DifferentSeedDifferentWorld) {
  GeneratorConfig config = GeneratorConfig::tiny();
  config.seed = 12345;
  const Internet a = InternetGenerator(GeneratorConfig::tiny()).generate();
  const Internet b = InternetGenerator(config).generate();
  // Same structure sizes are possible, but link wiring should differ.
  bool different = a.links.size() != b.links.size();
  if (!different) {
    for (std::size_t i = 0; i < a.links.size() && !different; ++i) {
      different = a.links[i].a != b.links[i].a || a.links[i].b != b.links[i].b;
    }
  }
  EXPECT_TRUE(different);
}

TEST(PeakDemand, ScalesWithUsers) {
  EXPECT_GT(peak_demand_gbps(1e6), peak_demand_gbps(1e5));
  EXPECT_NEAR(peak_demand_gbps(1e5), 100.0, 1.0);
  EXPECT_GE(peak_demand_gbps(0.0), 0.5);  // floor
}

TEST(GeneratorConfigPresets, ScalesOrdered) {
  EXPECT_LT(GeneratorConfig::tiny().scale, GeneratorConfig::small().scale);
  EXPECT_LT(GeneratorConfig::small().scale, GeneratorConfig::paper().scale);
}

}  // namespace
}  // namespace repro
