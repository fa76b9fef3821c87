#include "route/bgp.h"

#include <gtest/gtest.h>

#include <array>
#include <queue>

#include "topology/generator.h"

namespace repro {
namespace {

/// Whole-graph routes towards one destination: every AS's best route and
/// alternate, indexed by AS.
struct FullTable {
  std::vector<RouteEntry> best;
  std::vector<RouteEntry> alternates;
};

/// The oracle: the eager three-phase computation (customer BFS, peer pass,
/// provider BFS) plus the whole-graph alternates pass, the definition that
/// RoutingTable's lazy resolver must reproduce pair by pair.
FullTable full_routes_to(const Internet& internet, AsIndex destination) {
  const auto& ases = internet.ases;
  const auto& links = internet.links;
  const std::size_t n = ases.size();
  std::vector<RouteEntry> best(n);
  best[destination] =
      RouteEntry{true, RouteKind::kSelf, destination, kInvalidIndex, 0};
  const auto better = [&](const RouteEntry& candidate, const RouteEntry& current) {
    if (!current.reachable) return true;
    if (candidate.path_length != current.path_length) {
      return candidate.path_length < current.path_length;
    }
    return ases[candidate.next_hop].asn < ases[current.next_hop].asn;
  };

  // Phase 1: customer routes, BFS up provider chains.
  {
    std::queue<AsIndex> frontier;
    frontier.push(destination);
    while (!frontier.empty()) {
      const AsIndex current = frontier.front();
      frontier.pop();
      for (const LinkIndex li : ases[current].provider_links) {
        const AsIndex provider = links[li].b;
        const RouteEntry candidate{true, RouteKind::kCustomer, current, li,
                                   best[current].path_length + 1};
        if (best[provider].reachable &&
            best[provider].kind == RouteKind::kCustomer &&
            !better(candidate, best[provider])) {
          continue;
        }
        if (best[provider].kind == RouteKind::kSelf && best[provider].reachable) {
          continue;
        }
        best[provider] = candidate;
        frontier.push(provider);
      }
    }
  }

  // Phase 2: peer routes from every AS holding a customer or self route.
  {
    std::vector<RouteEntry> peer_routes(n);
    for (AsIndex current = 0; current < n; ++current) {
      if (!best[current].reachable) continue;
      if (best[current].kind != RouteKind::kSelf &&
          best[current].kind != RouteKind::kCustomer) {
        continue;
      }
      for (const LinkIndex li : ases[current].peer_links) {
        const auto& link = links[li];
        const AsIndex neighbor = link.a == current ? link.b : link.a;
        if (best[neighbor].reachable) continue;
        const RouteEntry candidate{true, RouteKind::kPeer, current, li,
                                   best[current].path_length + 1};
        if (better(candidate, peer_routes[neighbor])) {
          peer_routes[neighbor] = candidate;
        }
      }
    }
    for (AsIndex i = 0; i < n; ++i) {
      if (peer_routes[i].reachable) best[i] = peer_routes[i];
    }
  }

  // Phase 3: provider routes, BFS down customer links from every routed AS.
  {
    std::queue<AsIndex> frontier;
    for (AsIndex i = 0; i < n; ++i) {
      if (best[i].reachable) frontier.push(i);
    }
    while (!frontier.empty()) {
      const AsIndex current = frontier.front();
      frontier.pop();
      for (const LinkIndex li : ases[current].customer_links) {
        const AsIndex customer = links[li].a;
        const RouteEntry candidate{true, RouteKind::kProvider, current, li,
                                   best[current].path_length + 1};
        if (best[customer].reachable) {
          if (best[customer].kind != RouteKind::kProvider) continue;
          if (!better(candidate, best[customer])) continue;
        }
        best[customer] = candidate;
        frontier.push(customer);
      }
    }
  }

  // Alternates: every AS re-offers its route to every neighbor the export
  // rules allow; a neighbor keeps the best offer through a different next
  // hop whose first hop does not route straight back.
  std::vector<RouteEntry> alternates(n);
  const auto full_better = [&](const RouteEntry& candidate,
                               const RouteEntry& current) {
    if (!current.reachable) return true;
    if (candidate.kind != current.kind) return candidate.kind < current.kind;
    return better(candidate, current);
  };
  const auto offer = [&](AsIndex to, const RouteEntry& candidate) {
    if (to == destination) return;
    if (!best[to].reachable) return;
    if (candidate.next_hop == best[to].next_hop) return;
    if (best[candidate.next_hop].next_hop == to) return;
    if (full_better(candidate, alternates[to])) alternates[to] = candidate;
  };
  for (AsIndex current = 0; current < n; ++current) {
    const RouteEntry& route = best[current];
    if (!route.reachable) continue;
    const int length = route.path_length + 1;
    if (route.kind == RouteKind::kSelf || route.kind == RouteKind::kCustomer) {
      for (const LinkIndex li : ases[current].provider_links) {
        offer(links[li].b,
              RouteEntry{true, RouteKind::kCustomer, current, li, length});
      }
      for (const LinkIndex li : ases[current].peer_links) {
        const auto& link = links[li];
        const AsIndex neighbor = link.a == current ? link.b : link.a;
        offer(neighbor, RouteEntry{true, RouteKind::kPeer, current, li, length});
      }
    }
    for (const LinkIndex li : ases[current].customer_links) {
      offer(links[li].a,
            RouteEntry{true, RouteKind::kProvider, current, li, length});
    }
  }
  return FullTable{std::move(best), std::move(alternates)};
}

bool same_route(const RouteEntry& a, const RouteEntry& b) {
  return a.reachable == b.reachable && a.kind == b.kind &&
         a.next_hop == b.next_hop && a.via_link == b.via_link &&
         a.path_length == b.path_length;
}

/// Checks entry() and alternate() of the lazy table against the oracle for
/// every (source, destination) pair; `stride` thins the destinations.
void expect_matches_oracle(const Internet& net, std::size_t stride) {
  const RoutingEngine engine(net);
  std::size_t checked = 0;
  for (AsIndex dst = 0; dst < net.ases.size(); dst += stride) {
    const FullTable oracle = full_routes_to(net, dst);
    const RoutingTable table = engine.routes_to(dst);
    // Alternates first on half the destinations, so both resolution orders
    // (alternate before entry, entry before alternate) are exercised.
    for (AsIndex src = 0; src < net.ases.size(); ++src) {
      if (dst % 2 == 0) {
        ASSERT_TRUE(same_route(table.alternate(src), oracle.alternates[src]))
            << "alternate " << src << " -> " << dst;
      }
      ASSERT_TRUE(same_route(table.entry(src), oracle.best[src]))
          << "entry " << src << " -> " << dst;
      ASSERT_TRUE(same_route(table.alternate(src), oracle.alternates[src]))
          << "alternate " << src << " -> " << dst;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

/// Hand-built 6-AS topology:
///
///        T1a ---peer--- T1b          (tier-1 mesh)
///        /  \            |
///      Tr1  Tr2         Tr3          (transits, customers of tier-1s)
///      /      \          |
///    Edge1   Edge2 --- Edge3(peer)   (access ISPs)
///
/// Built by hand so every preference rule is checkable.
class MiniTopology : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto add = [&](AsNumber asn, AsTier tier) {
      As as;
      as.asn = asn;
      as.name = "AS" + std::to_string(asn);
      as.tier = tier;
      as.country = 0;
      Metro metro;
      metro.name = as.name + "-metro";
      metro.iata = "zz" + std::string(1, static_cast<char>('a' + asn % 26));
      metro.country = 0;
      const MetroIndex mi = net_.add_metro(metro);
      as.metros = {mi};
      as.primary_metro = mi;
      Facility facility;
      facility.metro = mi;
      facility.kind = FacilityKind::kColocation;
      facility.name = as.name + "-colo";
      const FacilityIndex fi = net_.add_facility(facility);
      as.facilities = {fi};
      as.infra = PrefixAllocator(
          Prefix(Ipv4(0x0a000000u + asn * 0x10000u), 16));
      const AsIndex index = net_.add_as(std::move(as));
      net_.announce(index, net_.ases[index].infra.pool());
      return index;
    };
    t1a_ = add(1, AsTier::kTier1);
    t1b_ = add(2, AsTier::kTier1);
    tr1_ = add(11, AsTier::kTransit);
    tr2_ = add(12, AsTier::kTransit);
    tr3_ = add(13, AsTier::kTransit);
    e1_ = add(101, AsTier::kAccess);
    e2_ = add(102, AsTier::kAccess);
    e3_ = add(103, AsTier::kAccess);

    const auto link = [&](AsIndex a, AsIndex b, LinkKind kind) {
      InterdomainLink l;
      l.kind = kind;
      l.a = a;
      l.b = b;
      l.facility = net_.ases[a].facilities.front();
      return net_.add_link(l);
    };
    link(t1a_, t1b_, LinkKind::kPrivatePeering);
    link(tr1_, t1a_, LinkKind::kTransit);
    link(tr2_, t1a_, LinkKind::kTransit);
    link(tr3_, t1b_, LinkKind::kTransit);
    link(e1_, tr1_, LinkKind::kTransit);
    link(e2_, tr2_, LinkKind::kTransit);
    link(e3_, tr3_, LinkKind::kTransit);
    link(e2_, e3_, LinkKind::kPrivatePeering);
  }

  Internet net_;
  AsIndex t1a_{}, t1b_{}, tr1_{}, tr2_{}, tr3_{}, e1_{}, e2_{}, e3_{};
};

TEST_F(MiniTopology, CustomerRoutePreferredOverPeer) {
  // From tr3's perspective towards e3: customer route (direct).
  const RoutingEngine engine(net_);
  const RoutingTable table = engine.routes_to(e3_);
  EXPECT_EQ(table.entry(tr3_).kind, RouteKind::kCustomer);
  EXPECT_EQ(table.entry(tr3_).next_hop, e3_);
  // e2 reaches e3 via the direct peering, not via transit.
  EXPECT_EQ(table.entry(e2_).kind, RouteKind::kPeer);
  EXPECT_EQ(table.entry(e2_).next_hop, e3_);
}

TEST_F(MiniTopology, ProviderRouteWhenNothingElse) {
  const RoutingEngine engine(net_);
  const RoutingTable table = engine.routes_to(e3_);
  // e1 has no customer or peer path: must go up via tr1.
  EXPECT_EQ(table.entry(e1_).kind, RouteKind::kProvider);
  // Full path: e1 -> tr1 -> t1a -(peer)-> t1b -> tr3 -> e3.
  const auto path = table.as_path(e1_);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path[0], e1_);
  EXPECT_EQ(path[1], tr1_);
  EXPECT_EQ(path[2], t1a_);
  EXPECT_EQ(path[3], t1b_);
  EXPECT_EQ(path[4], tr3_);
  EXPECT_EQ(path[5], e3_);
}

TEST_F(MiniTopology, PathsAreValleyFree) {
  const RoutingEngine engine(net_);
  for (const As& dst : net_.ases) {
    const RoutingTable table = engine.routes_to(dst.index);
    for (const As& src : net_.ases) {
      const auto path = table.as_path(src.index);
      if (path.empty()) continue;
      // entry(path[i]).kind says how path[i] reaches path[i+1]:
      //   kProvider = the edge goes UP, kPeer = flat, kCustomer = DOWN.
      // Valley-free means: up* peer? down* -- once the path turns flat or
      // down it never goes up again, with at most one peer edge.
      int peer_edges = 0;
      bool descended = false;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const RouteEntry& entry = table.entry(path[i]);
        switch (entry.kind) {
          case RouteKind::kProvider:
            EXPECT_FALSE(descended) << "up edge after down/peer";
            break;
          case RouteKind::kPeer:
            EXPECT_FALSE(descended) << "peer edge after down/peer";
            ++peer_edges;
            descended = true;
            break;
          case RouteKind::kCustomer:
            descended = true;
            break;
          case RouteKind::kSelf:
            ADD_FAILURE() << "self entry mid-path";
        }
      }
      EXPECT_LE(peer_edges, 1);
    }
  }
}

TEST_F(MiniTopology, LinkPathMatchesAsPath) {
  const RoutingEngine engine(net_);
  const RoutingTable table = engine.routes_to(e3_);
  const auto as_path = table.as_path(e1_);
  const auto link_path = table.link_path(e1_);
  ASSERT_EQ(link_path.size() + 1, as_path.size());
  for (std::size_t i = 0; i < link_path.size(); ++i) {
    const InterdomainLink& link = net_.links[link_path[i]];
    const bool forward = link.a == as_path[i] && link.b == as_path[i + 1];
    const bool backward = link.b == as_path[i] && link.a == as_path[i + 1];
    EXPECT_TRUE(forward || backward);
  }
}

TEST_F(MiniTopology, DestinationEntryIsSelf) {
  const RoutingEngine engine(net_);
  const RoutingTable table = engine.routes_to(e1_);
  EXPECT_EQ(table.entry(e1_).kind, RouteKind::kSelf);
  EXPECT_TRUE(table.entry(e1_).reachable);
  EXPECT_EQ(table.entry(e1_).path_length, 0);
  const auto path = table.as_path(e1_);
  ASSERT_EQ(path.size(), 1u);
}

TEST_F(MiniTopology, PeerRouteNotExportedToProviders) {
  // tr2 must not reach e3 via e2's peer link (valley-free): its route goes
  // up through t1a.
  const RoutingEngine engine(net_);
  const RoutingTable table = engine.routes_to(e3_);
  const auto path = table.as_path(tr2_);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path[1], e2_) << "peer-learned route leaked upward";
}

TEST_F(MiniTopology, LazyTableMatchesFullComputation) {
  expect_matches_oracle(net_, 1);
}

TEST(GeneratedTopologyRouting, LazyTableMatchesFullComputationTiny) {
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  ASSERT_EQ(net.ases.size(), 399u);
  expect_matches_oracle(net, 1);
}

TEST(GeneratedTopologyRouting, LazyTableMatchesFullComputationSmall) {
  const Internet net = InternetGenerator(GeneratorConfig::small()).generate();
  ASSERT_EQ(net.ases.size(), 1250u);
  expect_matches_oracle(net, 1);
}

TEST(GeneratedTopologyRouting, LazyTableHasAlternatesToCheck) {
  // The oracle comparison is only as strong as the alternates it sees:
  // the tiny world must offer every kind of second route, and a blackhole.
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  const RoutingEngine engine(net);
  std::array<std::size_t, 4> kinds{};
  std::size_t none = 0;
  for (const AsIndex dst : net.access_isps()) {
    const RoutingTable table = engine.routes_to(dst);
    for (const As& as : net.ases) {
      if (as.index == dst) continue;
      const RouteEntry& alternate = table.alternate(as.index);
      if (alternate.reachable) ++kinds[static_cast<std::size_t>(alternate.kind)];
      else ++none;
    }
  }
  EXPECT_GT(kinds[static_cast<std::size_t>(RouteKind::kCustomer)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(RouteKind::kPeer)], 0u);
  EXPECT_GT(kinds[static_cast<std::size_t>(RouteKind::kProvider)], 0u);
  EXPECT_GT(none, 0u);
}

TEST(GeneratedTopologyRouting, EverybodyReachesHypergiants) {
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  const RoutingEngine engine(net);
  for (const AsNumber asn : {kGoogleAsn, kNetflixAsn, kMetaAsn, kAkamaiAsn}) {
    const RoutingTable table = engine.routes_to(net.as_by_asn(asn));
    for (const As& as : net.ases) {
      EXPECT_TRUE(table.entry(as.index).reachable) << as.name;
      EXPECT_FALSE(table.as_path(as.index).empty()) << as.name;
    }
  }
}

TEST(GeneratedTopologyRouting, PathLengthsReasonable) {
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  const RoutingEngine engine(net);
  const RoutingTable table = engine.routes_to(net.as_by_asn(kGoogleAsn));
  for (const AsIndex isp : net.access_isps()) {
    const auto path = table.as_path(isp);
    ASSERT_FALSE(path.empty());
    EXPECT_LE(path.size(), 6u);  // access -> transit -> tier1 -> HG at worst
  }
}

TEST(GeneratedTopologyRouting, ValleyFreeOnGeneratedGraph) {
  // Property check at tiny scale across several destinations.
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  const RoutingEngine engine(net);
  int destinations = 0;
  for (const AsIndex dst : net.access_isps()) {
    if (++destinations > 10) break;
    const RoutingTable table = engine.routes_to(dst);
    for (const As& src : net.ases) {
      const auto path = table.as_path(src.index);
      if (path.empty()) continue;
      bool descended = false;
      int peers = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const RouteKind kind = table.entry(path[i]).kind;
        if (kind == RouteKind::kProvider) {
          EXPECT_FALSE(descended);  // up edge after the path turned down
        } else if (kind == RouteKind::kPeer) {
          EXPECT_FALSE(descended);
          ++peers;
          descended = true;
        } else {
          descended = true;  // customer edge: downhill from here on
        }
      }
      EXPECT_LE(peers, 1);
    }
  }
}

}  // namespace
}  // namespace repro
