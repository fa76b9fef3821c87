#include "mlab/ping_mesh.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "topology/generator.h"

namespace repro {
namespace {

class MlabTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    registry_ = new OffnetRegistry(
        DeploymentPolicy(*net_, config).deploy(Snapshot::k2023));
    vps_ = new VantagePointSet(*net_, 40, 163163);
    mesh_ = new PingMesh(*net_, *vps_, PingConfig{});
  }
  static void TearDownTestSuite() {
    delete mesh_;
    delete vps_;
    delete registry_;
    delete net_;
  }
  static Internet* net_;
  static OffnetRegistry* registry_;
  static VantagePointSet* vps_;
  static PingMesh* mesh_;
};

Internet* MlabTest::net_ = nullptr;
OffnetRegistry* MlabTest::registry_ = nullptr;
VantagePointSet* MlabTest::vps_ = nullptr;
PingMesh* MlabTest::mesh_ = nullptr;

TEST_F(MlabTest, VantagePointsCountAndLocations) {
  EXPECT_EQ(vps_->size(), 40u);
  for (std::size_t i = 0; i < vps_->size(); ++i) {
    const VantagePoint& vp = (*vps_)[i];
    EXPECT_EQ(vp.index, i);
    EXPECT_LT(vp.metro, net_->metros.size());
    // Placed near its metro.
    EXPECT_LE(haversine_km(vp.location, net_->metros[vp.metro].location), 25.0);
  }
}

TEST_F(MlabTest, VantagePointsDeterministic) {
  const VantagePointSet again(*net_, 40, 163163);
  for (std::size_t i = 0; i < vps_->size(); ++i) {
    EXPECT_EQ(again[i].metro, (*vps_)[i].metro);
    EXPECT_EQ(again[i].location, (*vps_)[i].location);
  }
}

TEST_F(MlabTest, MeasurementsDeterministic) {
  const OffnetServer& server = registry_->servers().front();
  const double a = mesh_->measure_once((*vps_)[0], server);
  const double b = mesh_->measure_once((*vps_)[0], server);
  if (std::isnan(a)) {
    EXPECT_TRUE(std::isnan(b));
  } else {
    EXPECT_DOUBLE_EQ(a, b);
  }
}

TEST_F(MlabTest, RttRespectsSpeedOfLight) {
  // For responsive, non-split IPs the RTT must exceed the physical bound.
  int checked = 0;
  for (const OffnetServer& server : registry_->servers()) {
    if (mesh_->ip_unresponsive(server.ip) ||
        mesh_->ip_split_personality(server.ip)) {
      continue;
    }
    for (std::size_t v = 0; v < 5; ++v) {
      const double rtt = mesh_->measure_once((*vps_)[v], server);
      if (std::isnan(rtt)) continue;
      const GeoPoint& loc = net_->facilities[server.facility].location;
      EXPECT_GE(rtt, min_rtt_ms((*vps_)[v].location, loc) - 1e-9);
      ++checked;
    }
    if (checked > 200) break;
  }
  EXPECT_GT(checked, 50);
}

TEST_F(MlabTest, UnresponsiveIpsNeverAnswer) {
  int found = 0;
  for (const OffnetServer& server : registry_->servers()) {
    if (!mesh_->ip_unresponsive(server.ip)) continue;
    ++found;
    for (std::size_t v = 0; v < 3; ++v) {
      EXPECT_TRUE(std::isnan(mesh_->measure_once((*vps_)[v], server)));
    }
    if (found > 20) break;
  }
  EXPECT_GT(found, 0);
}

TEST_F(MlabTest, PathologyRatesApproximateConfig) {
  std::size_t unresponsive = 0;
  std::size_t split = 0;
  for (const OffnetServer& server : registry_->servers()) {
    if (mesh_->ip_unresponsive(server.ip)) ++unresponsive;
    if (mesh_->ip_split_personality(server.ip)) ++split;
  }
  const double n = static_cast<double>(registry_->server_count());
  EXPECT_NEAR(unresponsive / n, mesh_->config().unresponsive_ip_rate, 0.02);
  EXPECT_NEAR(split / n, mesh_->config().split_personality_rate, 0.01);
}

TEST_F(MlabTest, MatrixShapeMatchesIspServers) {
  const AsIndex isp = registry_->hosting_isps().front();
  const LatencyMatrix matrix = mesh_->measure_isp(*registry_, isp);
  EXPECT_EQ(matrix.row_count(), registry_->servers_at(isp).size());
  EXPECT_EQ(matrix.vp_count, vps_->size());
  EXPECT_EQ(matrix.rtt.size(), matrix.row_count() * matrix.vp_count);
  for (std::size_t row = 0; row < matrix.row_count(); ++row) {
    EXPECT_EQ(matrix.ips[row],
              registry_->servers()[matrix.server_indices[row]].ip);
  }
}

TEST_F(MlabTest, MeasureIspMatchesMeasureOnce) {
  // measure_isp hoists the route RTT out of the per-cell loop; every cell
  // must still equal the single-cell reference byte for byte (NaN
  // included), and both paths must count the same re-probe rounds.
  PingConfig chaos;
  fault::apply_ping_faults(chaos, fault::FaultPlan::chaos());
  PingConfig retry = chaos;
  retry.retry_budget = 2;
  const std::pair<const char*, PingConfig> configs[] = {
      {"clean", PingConfig{}}, {"chaos", chaos}, {"chaos+retry", retry}};
  obs::Counter& rounds = obs::metrics().counter("mlab.reprobe_rounds");
  obs::Counter& recovered = obs::metrics().counter("mlab.reprobe_recovered");
  std::size_t split_ips = 0;
  std::size_t unresponsive_ips = 0;
  std::size_t dark_vps = 0;
  std::size_t icmp_limited_isps = 0;
  std::size_t storm_isps = 0;
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    const PingMesh mesh(*net_, *vps_, config);
    std::uint64_t isp_rounds = 0;
    std::uint64_t isp_recovered = 0;
    std::uint64_t once_rounds = 0;
    std::uint64_t once_recovered = 0;
    for (const AsIndex isp : registry_->hosting_isps()) {
      if (mesh.isp_icmp_limited(isp)) ++icmp_limited_isps;
      if (mesh.isp_storm_limited(isp)) ++storm_isps;
      const std::uint64_t rounds_before = rounds.value();
      const std::uint64_t recovered_before = recovered.value();
      const LatencyMatrix matrix = mesh.measure_isp(*registry_, isp);
      isp_rounds += rounds.value() - rounds_before;
      isp_recovered += recovered.value() - recovered_before;

      const std::uint64_t once_rounds_before = rounds.value();
      const std::uint64_t once_recovered_before = recovered.value();
      for (std::size_t row = 0; row < matrix.row_count(); ++row) {
        const OffnetServer& server =
            registry_->servers()[matrix.server_indices[row]];
        if (mesh.ip_split_personality(server.ip)) ++split_ips;
        if (mesh.ip_unresponsive(server.ip)) ++unresponsive_ips;
        for (std::size_t col = 0; col < matrix.vp_count; ++col) {
          const double expected = mesh.measure_once((*vps_)[col], server);
          const double actual = matrix.at(row, col);
          ASSERT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
              << "isp " << isp << " row " << row << " vp " << col << ": "
              << expected << " vs " << actual;
        }
      }
      once_rounds += rounds.value() - once_rounds_before;
      once_recovered += recovered.value() - once_recovered_before;
    }
    for (std::size_t vp = 0; vp < vps_->size(); ++vp) {
      if (mesh.vp_dark(vp)) ++dark_vps;
    }
    EXPECT_EQ(isp_rounds, once_rounds);
    EXPECT_EQ(isp_recovered, once_recovered);
    if (config.retry_budget > 0) {
      EXPECT_GT(once_rounds, 0u);
      EXPECT_GT(once_recovered, 0u);
    }
  }
  // The fixture must exercise every branch of the hoisted path.
  EXPECT_GT(split_ips, 0u);
  EXPECT_GT(unresponsive_ips, 0u);
  EXPECT_GT(dark_vps, 0u);
  EXPECT_GT(icmp_limited_isps, 0u);
  EXPECT_GT(storm_isps, 0u);
}

TEST_F(MlabTest, SameFacilityPairsCloserThanCrossMetro) {
  // The core property OPTICS relies on: same-facility latency vectors are
  // much closer than cross-metro ones.
  const OffnetServer* a = nullptr;
  const OffnetServer* b = nullptr;  // same facility as a
  const OffnetServer* c = nullptr;  // different metro, same ISP size class
  for (const OffnetServer& server : registry_->servers()) {
    if (mesh_->ip_unresponsive(server.ip) ||
        mesh_->ip_split_personality(server.ip)) {
      continue;
    }
    if (a == nullptr) {
      a = &server;
      continue;
    }
    if (b == nullptr && server.facility == a->facility) {
      b = &server;
      continue;
    }
    if (c == nullptr &&
        net_->facilities[server.facility].metro !=
            net_->facilities[a->facility].metro) {
      c = &server;
    }
    if (b != nullptr && c != nullptr) break;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);

  double same = 0.0;
  double cross = 0.0;
  int count = 0;
  for (std::size_t v = 0; v < vps_->size(); ++v) {
    const double ra = mesh_->measure_once((*vps_)[v], *a);
    const double rb = mesh_->measure_once((*vps_)[v], *b);
    const double rc = mesh_->measure_once((*vps_)[v], *c);
    if (std::isnan(ra) || std::isnan(rb) || std::isnan(rc)) continue;
    same += std::fabs(ra - rb);
    cross += std::fabs(ra - rc);
    ++count;
  }
  ASSERT_GT(count, 10);
  EXPECT_LT(same / count, cross / count);
}

TEST(PingConfigValidation, Rejected) {
  Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  VantagePointSet vps(net, 5, 1);
  PingConfig config;
  config.probes = 1;
  EXPECT_THROW(PingMesh(net, vps, config), Error);
  config = PingConfig{};
  config.inflation_min = 0.5;
  EXPECT_THROW(PingMesh(net, vps, config), Error);
}

}  // namespace
}  // namespace repro
