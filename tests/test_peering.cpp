#include "route/peering_inference.h"

#include <gtest/gtest.h>

#include "topology/generator.h"

namespace repro {
namespace {

class PeeringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    routing_ = new RoutingEngine(*net_);
    tracer_ = new TracerouteEngine(*net_, TracerouteConfig{});
    registry_ = new IxpRegistry(IxpRegistry::build(*net_, IxpRegistryConfig{}));
    PeeringStudyConfig config;
    config.vm_count = 6;
    config.slash24s_per_target = 2;
    study_ = new PeeringStudy(*net_, *tracer_, *registry_, config);
    google_ = net_->as_by_asn(kGoogleAsn);
  }
  static void TearDownTestSuite() {
    delete study_;
    delete registry_;
    delete tracer_;
    delete routing_;
    delete net_;
  }
  static Internet* net_;
  static RoutingEngine* routing_;
  static TracerouteEngine* tracer_;
  static IxpRegistry* registry_;
  static PeeringStudy* study_;
  static AsIndex google_;
};

Internet* PeeringTest::net_ = nullptr;
RoutingEngine* PeeringTest::routing_ = nullptr;
TracerouteEngine* PeeringTest::tracer_ = nullptr;
IxpRegistry* PeeringTest::registry_ = nullptr;
PeeringStudy* PeeringTest::study_ = nullptr;
AsIndex PeeringTest::google_ = 0;

/// Synthetic traceroute builder for unit-level classification tests.
Traceroute make_trace(std::vector<TracerouteHop> hops) {
  Traceroute trace;
  trace.hops = std::move(hops);
  return trace;
}

TracerouteHop hop(std::optional<Ipv4> ip, AsIndex owner) {
  TracerouteHop h;
  h.ip = ip;
  h.true_owner = owner;
  return h;
}

TEST_F(PeeringTest, DirectAdjacencyIsPeer) {
  const AsIndex target = net_->access_isps().front();
  const Ipv4 google_router = tracer_->router_ip(google_, 0);
  const Ipv4 isp_router = tracer_->router_ip(target, 0);
  const auto trace = make_trace({hop(google_router, google_),
                                 hop(isp_router, target)});
  const auto evidence = study_->classify_traceroute(trace, google_, target);
  EXPECT_EQ(evidence.status, PeeringStatus::kPeer);
  EXPECT_TRUE(evidence.seen_via_pni);
  EXPECT_FALSE(evidence.seen_via_ixp);
}

TEST_F(PeeringTest, StarsBetweenYieldPossible) {
  const AsIndex target = net_->access_isps().front();
  const auto trace = make_trace({hop(tracer_->router_ip(google_, 0), google_),
                                 hop(std::nullopt, target),
                                 hop(tracer_->router_ip(target, 1), target)});
  const auto evidence = study_->classify_traceroute(trace, google_, target);
  EXPECT_EQ(evidence.status, PeeringStatus::kPossiblePeer);
}

TEST_F(PeeringTest, InterveningNetworkMeansNoEvidence) {
  const AsIndex target = net_->access_isps().front();
  AsIndex transit = kInvalidIndex;
  for (const As& as : net_->ases) {
    if (as.tier == AsTier::kTransit) {
      transit = as.index;
      break;
    }
  }
  ASSERT_NE(transit, kInvalidIndex);
  const auto trace = make_trace({hop(tracer_->router_ip(google_, 0), google_),
                                 hop(tracer_->router_ip(transit, 0), transit),
                                 hop(tracer_->router_ip(target, 0), target)});
  const auto evidence = study_->classify_traceroute(trace, google_, target);
  EXPECT_EQ(evidence.status, PeeringStatus::kNoEvidence);
}

TEST_F(PeeringTest, IxpLanAddressMarksViaIxp) {
  // Use a real registered port of some member.
  for (const Ixp& ixp : net_->ixps) {
    for (std::uint64_t offset = 0; offset < ixp.peering_lan.size(); ++offset) {
      const Ipv4 address = ixp.peering_lan.at(offset);
      const auto truth = net_->ixp_port_of_ip(address);
      if (!truth) continue;
      if (!registry_->port_lookup(address)) continue;  // needs DB coverage
      const AsIndex member = truth->member;
      if (net_->ases[member].tier != AsTier::kAccess) continue;
      const auto trace = make_trace(
          {hop(tracer_->router_ip(google_, 0), google_), hop(address, member)});
      const auto evidence = study_->classify_traceroute(trace, google_, member);
      EXPECT_EQ(evidence.status, PeeringStatus::kPeer);
      EXPECT_TRUE(evidence.seen_via_ixp);
      EXPECT_FALSE(evidence.seen_via_pni);
      return;
    }
  }
  GTEST_SKIP() << "no registered access-ISP IXP port in tiny world";
}

TEST_F(PeeringTest, UnknownHopBreaksAdjacency) {
  const AsIndex target = net_->access_isps().front();
  // An address outside any announced prefix (unmapped).
  const Ipv4 mystery = Ipv4::parse("203.0.113.77");
  const auto trace = make_trace({hop(tracer_->router_ip(google_, 0), google_),
                                 hop(mystery, kInvalidIndex),
                                 hop(tracer_->router_ip(target, 0), target)});
  const auto evidence = study_->classify_traceroute(trace, google_, target);
  EXPECT_EQ(evidence.status, PeeringStatus::kNoEvidence);
}

TEST_F(PeeringTest, EmptyTracerouteNoEvidence) {
  const AsIndex target = net_->access_isps().front();
  const auto evidence =
      study_->classify_traceroute(make_trace({}), google_, target);
  EXPECT_EQ(evidence.status, PeeringStatus::kNoEvidence);
}

TEST_F(PeeringTest, StudyPrecisionAgainstGroundTruth) {
  // Inferred "peer" must (almost) always be a true peer: the methodology's
  // false-positive rate should be negligible.
  std::vector<AsIndex> targets = net_->access_isps();
  targets.resize(std::min<std::size_t>(targets.size(), 60));
  const auto results = study_->run(google_, targets, *routing_);
  std::size_t inferred = 0;
  std::size_t correct = 0;
  std::size_t true_peers = 0;
  std::size_t recalled = 0;
  for (const auto& [isp, evidence] : results) {
    const bool truth = net_->has_peering(isp, google_);
    if (truth) ++true_peers;
    if (evidence.status == PeeringStatus::kPeer) {
      ++inferred;
      if (truth) ++correct;
      if (truth) ++recalled;
    }
  }
  ASSERT_GT(inferred, 5u);
  EXPECT_EQ(correct, inferred) << "false positive peering inference";
  ASSERT_GT(true_peers, 10u);
  // Recall is high but below 1 (silent routers/ASes hide some adjacencies).
  EXPECT_GT(static_cast<double>(recalled) / true_peers, 0.6);
}

TEST_F(PeeringTest, StudyDeterministic) {
  std::vector<AsIndex> targets = net_->access_isps();
  targets.resize(10);
  PeeringStudyOutcome first;
  PeeringStudyOutcome second;
  const auto a = study_->run(google_, targets, *routing_, &first);
  const auto b = study_->run(google_, targets, *routing_, &second);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [isp, evidence] : a) {
    const IspPeeringEvidence& again = b.at(isp);
    EXPECT_EQ(again.isp, evidence.isp);
    EXPECT_EQ(again.status, evidence.status);
    EXPECT_EQ(again.seen_via_ixp, evidence.seen_via_ixp);
    EXPECT_EQ(again.seen_via_pni, evidence.seen_via_pni);
    EXPECT_EQ(again.traceroutes, evidence.traceroutes);
    EXPECT_EQ(again.unstable, evidence.unstable);
  }
  EXPECT_EQ(second.targets, first.targets);
  EXPECT_EQ(second.probes, first.probes);
  EXPECT_EQ(second.unstable_targets, first.unstable_targets);
  EXPECT_EQ(second.downgraded_peers, first.downgraded_peers);
}

// ----------------------------------------------------- flap instability --

TEST_F(PeeringTest, StableStudyReportsNoInstability) {
  std::vector<AsIndex> targets = net_->access_isps();
  targets.resize(std::min<std::size_t>(targets.size(), 30));
  PeeringStudyOutcome outcome;
  study_->run(google_, targets, *routing_, &outcome);
  EXPECT_EQ(outcome.targets, targets.size());
  EXPECT_GT(outcome.probes, 0u);
  EXPECT_EQ(outcome.unstable_targets, 0u);
  EXPECT_EQ(outcome.downgraded_peers, 0u);
}

TEST_F(PeeringTest, FlappedEngineSurfacesInstabilityAndDowngrades) {
  TracerouteConfig config;
  config.fault_seed = 4242;
  config.flap_rate = 0.5;
  config.flap_period = 2;
  const TracerouteEngine flapped(*net_, config);
  PeeringStudyConfig study_config;
  study_config.vm_count = 6;
  study_config.slash24s_per_target = 2;
  const PeeringStudy flapped_study(*net_, flapped, *registry_, study_config);

  std::vector<AsIndex> targets = net_->access_isps();
  targets.resize(std::min<std::size_t>(targets.size(), 60));
  PeeringStudyOutcome outcome;
  const auto results = flapped_study.run(google_, targets, *routing_, &outcome);

  EXPECT_GT(outcome.unstable_targets, 0u)
      << "half the ASes flapping every other epoch surfaced no disagreement";
  EXPECT_LE(outcome.unstable_targets, outcome.targets);
  EXPECT_LE(outcome.downgraded_peers, outcome.unstable_targets);

  // The per-target evidence agrees with the aggregate: downgraded targets
  // are flagged unstable and never keep a hard kPeer verdict.
  std::size_t unstable_seen = 0;
  for (const auto& [isp, evidence] : results) {
    if (!evidence.unstable) continue;
    ++unstable_seen;
    EXPECT_NE(evidence.status, PeeringStatus::kPeer)
        << "unstable target kept a hard peer verdict";
  }
  EXPECT_EQ(unstable_seen, outcome.unstable_targets);
}

}  // namespace
}  // namespace repro
