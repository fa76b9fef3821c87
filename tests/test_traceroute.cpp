#include "route/traceroute.h"

#include <gtest/gtest.h>

#include "store/serde.h"
#include "topology/generator.h"

namespace repro {
namespace {

class TracerouteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    engine_ = new RoutingEngine(*net_);
    TracerouteConfig config;
    tracer_ = new TracerouteEngine(*net_, config);
    google_ = net_->as_by_asn(kGoogleAsn);
  }
  static void TearDownTestSuite() {
    delete tracer_;
    delete engine_;
    delete net_;
  }
  static Internet* net_;
  static RoutingEngine* engine_;
  static TracerouteEngine* tracer_;
  static AsIndex google_;
};

Internet* TracerouteTest::net_ = nullptr;
RoutingEngine* TracerouteTest::engine_ = nullptr;
TracerouteEngine* TracerouteTest::tracer_ = nullptr;
AsIndex TracerouteTest::google_ = 0;

Ipv4 user_ip(const Internet& net, AsIndex isp) {
  return net.ases[isp].user_prefixes.front().at(1);
}

TEST_F(TracerouteTest, HopsFollowAsPathOrder) {
  const AsIndex target = net_->access_isps().front();
  const RoutingTable table = engine_->routes_to(target);
  const Traceroute trace = tracer_->trace(google_, user_ip(*net_, target), table);
  ASSERT_FALSE(trace.hops.empty());

  // True owners must appear in AS-path order (with repeats for intra-AS).
  const auto as_path = table.as_path(google_);
  std::size_t position = 0;
  for (const TracerouteHop& hop : trace.hops) {
    while (position < as_path.size() && as_path[position] != hop.true_owner) {
      ++position;
    }
    ASSERT_LT(position, as_path.size())
        << "hop owner not on (or out of order with) the AS path";
  }
}

TEST_F(TracerouteTest, ResponsiveHopsCarryOwnersAddress) {
  int checked = 0;
  for (const AsIndex target : net_->access_isps()) {
    const RoutingTable table = engine_->routes_to(target);
    const Traceroute trace = tracer_->trace(google_, user_ip(*net_, target), table);
    for (const TracerouteHop& hop : trace.hops) {
      if (!hop.ip) continue;
      const auto ixp = net_->ixp_port_of_ip(*hop.ip);
      if (ixp) {
        EXPECT_EQ(ixp->member, hop.true_owner);
      } else {
        const auto owner = net_->as_of_ip(*hop.ip);
        ASSERT_TRUE(owner.has_value());
        EXPECT_EQ(*owner, hop.true_owner);
      }
      ++checked;
    }
    if (checked > 100) break;
  }
  EXPECT_GT(checked, 20);
}

TEST_F(TracerouteTest, IxpCrossingsShowPeeringLanAddress) {
  // Find a target whose best path from Google crosses an IXP link.
  int found = 0;
  for (const AsIndex target : net_->access_isps()) {
    const RoutingTable table = engine_->routes_to(target);
    const auto links = table.link_path(google_);
    bool crosses_ixp = false;
    for (const LinkIndex li : links) {
      if (net_->links[li].kind == LinkKind::kIxpPeering) crosses_ixp = true;
    }
    if (!crosses_ixp) continue;
    const Traceroute trace = tracer_->trace(google_, user_ip(*net_, target), table);
    bool saw_lan_address = false;
    for (const TracerouteHop& hop : trace.hops) {
      if (hop.ip && net_->ixp_port_of_ip(*hop.ip)) saw_lan_address = true;
    }
    // The LAN address only shows if that router responds; count across
    // multiple targets.
    found += saw_lan_address ? 1 : 0;
    if (found >= 3) break;
  }
  EXPECT_GE(found, 1) << "no IXP crossing surfaced a peering-LAN address";
}

TEST_F(TracerouteTest, SilentAsYieldsAllStars) {
  // Find an AS the engine marks silent that appears on some path.
  for (const AsIndex target : net_->access_isps()) {
    const RoutingTable table = engine_->routes_to(target);
    const auto as_path = table.as_path(google_);
    for (const AsIndex as : as_path) {
      if (as == google_ || as == target) continue;
      if (!tracer_->as_silent(as)) continue;
      const Traceroute trace =
          tracer_->trace(google_, user_ip(*net_, target), table);
      for (const TracerouteHop& hop : trace.hops) {
        if (hop.true_owner == as) {
          EXPECT_FALSE(hop.ip.has_value());
        }
      }
      return;
    }
  }
  GTEST_SKIP() << "no silent AS on probed paths in tiny world";
}

TEST_F(TracerouteTest, UnreachableDestinationYieldsEmpty) {
  // A routing table towards an AS gives empty paths only if unreachable;
  // in the generated world everything is reachable, so simulate by asking
  // for a path from an AS to itself -- the traceroute is just the host.
  const AsIndex target = net_->access_isps().front();
  const RoutingTable table = engine_->routes_to(target);
  const Traceroute self = tracer_->trace(target, user_ip(*net_, target), table);
  ASSERT_GE(self.hops.size(), 1u);
  EXPECT_EQ(self.hops.back().true_owner, target);
}

TEST_F(TracerouteTest, DestinationRespondsPersistently) {
  const AsIndex target = net_->access_isps()[1];
  const RoutingTable table = engine_->routes_to(target);
  const Ipv4 dst = user_ip(*net_, target);
  const Traceroute a = tracer_->trace(google_, dst, table, 1);
  const Traceroute b = tracer_->trace(google_, dst, table, 2);
  EXPECT_EQ(a.destination_reached, b.destination_reached);
}

TEST_F(TracerouteTest, FlowsVaryRouterInterfaces) {
  const AsIndex target = net_->access_isps()[2];
  const RoutingTable table = engine_->routes_to(target);
  const Ipv4 dst = user_ip(*net_, target);
  bool any_difference = false;
  for (std::uint64_t flow = 1; flow <= 8 && !any_difference; ++flow) {
    const Traceroute a = tracer_->trace(google_, dst, table, 0);
    const Traceroute b = tracer_->trace(google_, dst, table, flow);
    if (a.hops.size() != b.hops.size()) {
      any_difference = true;
      break;
    }
    for (std::size_t i = 0; i < a.hops.size(); ++i) {
      if (a.hops[i].ip != b.hops[i].ip) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(TracerouteTest, RouterIpsComeFromInfraBlock) {
  const AsIndex as = net_->access_isps().front();
  for (std::uint64_t slot = 0; slot < 10; ++slot) {
    EXPECT_TRUE(net_->ases[as].infra.pool().contains(tracer_->router_ip(as, slot)));
  }
}

TEST_F(TracerouteTest, RouterSilenceDeterministic) {
  const AsIndex as = net_->access_isps().front();
  const Ipv4 router = tracer_->router_ip(as, 3);
  EXPECT_EQ(tracer_->router_silent(as, router), tracer_->router_silent(as, router));
}

// ---------------------------------------------------------- flap faults --

bool same_trace(const Traceroute& a, const Traceroute& b) {
  if (a.destination_reached != b.destination_reached) return false;
  if (a.flap_detoured != b.flap_detoured) return false;
  if (a.flap_truncated != b.flap_truncated) return false;
  if (a.hops.size() != b.hops.size()) return false;
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    if (a.hops[i].ip != b.hops[i].ip) return false;
    if (a.hops[i].true_owner != b.hops[i].true_owner) return false;
  }
  return true;
}

/// FNV-1a over every hop (IP or '*', true owner), the reach flag and the
/// two flap flags of Google's traceroutes to each access ISP's first user
/// IP, flows 0-2 (probe_time = flow).
std::uint64_t campaign_digest(const Internet& net, const RoutingEngine& routing,
                              const TracerouteEngine& tracer, AsIndex src) {
  store::Fnv1a digest;
  for (const AsIndex target : net.access_isps()) {
    const RoutingTable table = routing.routes_to(target);
    const Ipv4 dst = user_ip(net, target);
    for (std::uint64_t flow = 0; flow < 3; ++flow) {
      const Traceroute trace = tracer.trace(src, dst, table, flow, flow);
      digest.mix(std::uint64_t{trace.hops.size()});
      for (const TracerouteHop& hop : trace.hops) {
        if (hop.ip) {
          digest.mix(hop.ip->value());
        } else {
          digest.mix(std::string_view("*"));
        }
        digest.mix(hop.true_owner);
      }
      digest.mix(trace.destination_reached)
          .mix(trace.flap_detoured)
          .mix(trace.flap_truncated);
    }
  }
  return digest.digest();
}

TEST_F(TracerouteTest, GoldenCampaignDigest) {
  // Pins every hop of the tiny world's Google campaign, clean and under
  // flap faults: any change to the forwarding walk, a hash salt or the
  // hop numbering moves one of these digests.
  EXPECT_EQ(campaign_digest(*net_, *engine_, *tracer_, google_),
            0x68805a1be5cf685eULL);
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.3;
  const TracerouteEngine flapped(*net_, config);
  EXPECT_EQ(campaign_digest(*net_, *engine_, flapped, google_),
            0x49c8df79d8bd954cULL);
}

TEST_F(TracerouteTest, ZeroFlapRateBitIdenticalToCleanEngine) {
  // A nonzero fault seed with a zero flap rate must not perturb a single
  // hop: no AS is flap-prone at rate 0, so the flap branch never fires.
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.0;
  const TracerouteEngine armed(*net_, config);
  for (const AsIndex target : net_->access_isps()) {
    const RoutingTable table = engine_->routes_to(target);
    const Ipv4 dst = user_ip(*net_, target);
    for (std::uint64_t flow = 0; flow < 3; ++flow) {
      EXPECT_TRUE(same_trace(tracer_->trace(google_, dst, table, flow),
                             armed.trace(google_, dst, table, flow)));
    }
  }
}

TEST_F(TracerouteTest, FlapWalkMatchesCleanTraceWhenNothingFlaps) {
  // Arming flap faults must leave non-flapping paths alone: a probe whose
  // path has no flap-prone AS emits exactly the clean engine's hops.
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.3;
  const TracerouteEngine flapped(*net_, config);
  int compared = 0;
  for (const AsIndex target : net_->access_isps()) {
    const RoutingTable table = engine_->routes_to(target);
    bool any_flapping = flapped.as_flapping(target);
    for (const AsIndex as : table.as_path(google_)) {
      if (flapped.as_flapping(as)) any_flapping = true;
    }
    if (any_flapping) continue;
    const Ipv4 dst = user_ip(*net_, target);
    EXPECT_TRUE(same_trace(tracer_->trace(google_, dst, table, 7),
                           flapped.trace(google_, dst, table, 7)));
    ++compared;
  }
  EXPECT_GT(compared, 0) << "every probed path had a flap-prone AS";
}

TEST_F(TracerouteTest, FlapVariesPathsAcrossProbeTimes) {
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.9;
  config.flap_period = 2;
  const TracerouteEngine flapped(*net_, config);
  bool saw_flap_effect = false;
  bool saw_disagreement = false;
  for (const AsIndex target : net_->access_isps()) {
    const RoutingTable table = engine_->routes_to(target);
    const Ipv4 dst = user_ip(*net_, target);
    Traceroute first;
    for (std::uint64_t t = 0; t < 8; ++t) {
      const Traceroute probe = flapped.trace(google_, dst, table, 7, t);
      if (probe.flap_detoured || probe.flap_truncated) saw_flap_effect = true;
      if (t == 0) {
        first = probe;
      } else if (!same_trace(first, probe)) {
        saw_disagreement = true;
      }
    }
    if (saw_flap_effect && saw_disagreement) break;
  }
  EXPECT_TRUE(saw_flap_effect) << "no probe detoured or blackholed at 0.9";
  EXPECT_TRUE(saw_disagreement) << "paths never disagreed across epochs";
}

TEST_F(TracerouteTest, FlapDeterministicPerFlowAndProbeTime) {
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.9;
  const TracerouteEngine flapped(*net_, config);
  const AsIndex target = net_->access_isps()[1];
  const RoutingTable table = engine_->routes_to(target);
  const Ipv4 dst = user_ip(*net_, target);
  for (std::uint64_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(same_trace(flapped.trace(google_, dst, table, 3, t),
                           flapped.trace(google_, dst, table, 3, t)));
  }
}

TEST_F(TracerouteTest, FlappingDestinationWithdrawsAndBlackholes) {
  // A flap-down *destination* withdraws its announcement: no probe can
  // cross the final interdomain hop during a down epoch, even when every
  // forwarding AS is healthy. This is the direct-peering case -- one AS
  // hop, no intermediate AS to flap.
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.9;
  config.flap_period = 1;  // every probe_time is its own epoch
  const TracerouteEngine flapped(*net_, config);
  for (const AsIndex target : net_->access_isps()) {
    if (!flapped.as_flapping(target)) continue;
    std::uint64_t down_time = 0;
    bool found = false;
    for (std::uint64_t t = 0; t < 16 && !found; ++t) {
      if (flapped.flap_down(target, t)) {
        down_time = t;
        found = true;
      }
    }
    if (!found) continue;
    const RoutingTable table = engine_->routes_to(target);
    const Traceroute probe =
        flapped.trace(google_, user_ip(*net_, target), table, 0, down_time);
    EXPECT_FALSE(probe.destination_reached);
    EXPECT_TRUE(probe.flap_truncated);
    return;
  }
  GTEST_SKIP() << "no flap-prone destination at rate 0.9 in tiny world";
}

}  // namespace
}  // namespace repro
