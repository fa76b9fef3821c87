#include "tls/certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "hypergiant/background.h"
#include "hypergiant/profile.h"
#include "topology/generator.h"

namespace repro {
namespace {

TlsCertificate sample_cert() {
  TlsCertificate cert;
  cert.subject.common_name = "*.example.com";
  cert.subject.organization = "Example Org";
  cert.issuer_organization = "Example CA";
  cert.san_dns = {"*.example.com", "example.com"};
  return cert;
}

TEST(TlsCertificate, MatchesNameGlobOverCnAndSans) {
  TlsCertificate cert = sample_cert();
  EXPECT_TRUE(cert.matches_name_glob("*.example.com"));
  EXPECT_TRUE(cert.matches_name_glob("example.com"));
  EXPECT_FALSE(cert.matches_name_glob("*.other.com"));
}

TEST(TlsCertificate, HasExactNameCaseInsensitive) {
  TlsCertificate cert = sample_cert();
  EXPECT_TRUE(cert.has_exact_name("*.EXAMPLE.com"));
  EXPECT_TRUE(cert.has_exact_name("example.com"));
  EXPECT_FALSE(cert.has_exact_name("www.example.com"));
}

// --------------------------------------------- build_tls_population --

class TlsPopulation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new Internet(InternetGenerator(GeneratorConfig::tiny()).generate());
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    registry_ = new OffnetRegistry(
        DeploymentPolicy(*net_, config).deploy(Snapshot::k2023));
  }
  static void TearDownTestSuite() {
    delete registry_;
    delete net_;
  }

  static TlsEndpoints build(const OffnetRegistry& registry) {
    return build_tls_population(*net_, registry, Snapshot::k2023,
                                PopulationConfig{});
  }

  /// The endpoint at `ip`, or nullptr.
  /// The certificate served at `ip`, or nullptr.
  static const TlsCertificate* find(const TlsEndpoints& population, Ipv4 ip) {
    const auto it = std::ranges::lower_bound(population.endpoints, ip, {},
                                             &TlsEndpoint::ip);
    return it != population.endpoints.end() && it->ip == ip
               ? &population.cert_of(*it)
               : nullptr;
  }

  static Internet* net_;
  static OffnetRegistry* registry_;
};

Internet* TlsPopulation::net_ = nullptr;
OffnetRegistry* TlsPopulation::registry_ = nullptr;

TEST_F(TlsPopulation, IpsAscendingAndUnique) {
  const TlsEndpoints population = build(*registry_);
  ASSERT_GT(population.size(), registry_->server_count());
  EXPECT_EQ(std::ranges::adjacent_find(population.endpoints,
                                       std::greater_equal{}, &TlsEndpoint::ip),
            population.endpoints.end());
}

TEST_F(TlsPopulation, EveryRegistryServerPresent) {
  const TlsEndpoints population = build(*registry_);
  ASSERT_GT(registry_->server_count(), 0u);
  for (const OffnetServer& server : registry_->servers()) {
    const TlsCertificate* cert = find(population, server.ip);
    ASSERT_NE(cert, nullptr) << server.ip.to_string();
    EXPECT_FALSE(cert->subject.common_name.empty());
  }
}

TEST_F(TlsPopulation, LastInstallWinsOnDuplicateIp) {
  // A Netflix offnet placed on Google's first onnet IP: the onnet install
  // comes later, so it replaces the offnet and the IP is listed once.
  const AsIndex google = net_->as_by_asn(profile(Hypergiant::kGoogle).asn);
  const Ipv4 onnet_ip = net_->ases[google].infra.pool().at(1000);
  OffnetServer server = registry_->servers().front();
  server.hg = Hypergiant::kNetflix;
  const auto registry_with = [&](const OffnetServer& only) {
    OffnetRegistry registry;
    registry.add_deployment({.hg = only.hg, .isp = only.isp});
    registry.add_server(only);
    return registry;
  };
  const OffnetRegistry apart = registry_with(server);
  server.ip = onnet_ip;
  const OffnetRegistry colliding = registry_with(server);

  const TlsEndpoints reference = build(OffnetRegistry{});
  const TlsEndpoints separate = build(apart);
  const TlsEndpoints replaced = build(colliding);
  EXPECT_EQ(separate.size(), reference.size() + 1);
  EXPECT_EQ(replaced.size(), reference.size());

  const TlsCertificate* onnet = find(reference, onnet_ip);
  const TlsCertificate* offnet = find(separate, registry_->servers().front().ip);
  const TlsCertificate* winner = find(replaced, onnet_ip);
  ASSERT_NE(onnet, nullptr);
  ASSERT_NE(offnet, nullptr);
  ASSERT_NE(winner, nullptr);
  ASSERT_NE(offnet->subject, onnet->subject);
  EXPECT_EQ(winner->subject, onnet->subject);
}

}  // namespace
}  // namespace repro
