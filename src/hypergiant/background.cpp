#include "hypergiant/background.h"

#include <algorithm>
#include <string>

#include "hypergiant/certs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace repro {

namespace {

TlsCertificate make_isp_certificate(const As& as, Snapshot snapshot, Rng& rng) {
  TlsCertificate cert;
  cert.subject.common_name = "www." + to_lower(as.name) + ".example.net";
  cert.subject.organization = as.name + " Communications";
  cert.issuer_organization = "Let's Encrypt";
  cert.san_dns = {cert.subject.common_name};
  cert.not_before_year = snapshot_year(snapshot) - 1;
  cert.not_after_year = snapshot_year(snapshot);
  cert.serial = rng.next();
  return cert;
}

/// Decoys exercise classifier specificity: hypergiant-ish strings that must
/// not match the fingerprints (wrong suffix, wrong org, lookalike domains).
TlsCertificate make_decoy_certificate(int ordinal, Snapshot snapshot, Rng& rng) {
  TlsCertificate cert;
  switch (ordinal % 5) {
    case 0:
      cert.subject.common_name = "cache.googlevideo.com.cdn-mirror.example";
      cert.subject.organization = "Totally Not Google Ltd";
      break;
    case 1:
      cert.subject.common_name = "*.fbcdn.net.phish.example";
      cert.subject.organization = "";
      break;
    case 2:
      cert.subject.common_name = "video.oca-nflxvideo.example.net";
      cert.subject.organization = "Netflix Fan Club";
      break;
    case 3:
      cert.subject.common_name = "*.akamaized.example.org";
      cert.subject.organization = "Akamai Technologies";  // missing ", Inc."
      break;
    default:
      cert.subject.common_name = "*.othercdn.example";
      cert.subject.organization = "OtherCDN Inc";  // a 5th CDN we don't track
      break;
  }
  cert.san_dns = {cert.subject.common_name};
  cert.issuer_organization = "Let's Encrypt";
  cert.not_before_year = snapshot_year(snapshot) - 1;
  cert.not_after_year = snapshot_year(snapshot) + 1;
  cert.serial = rng.next();
  return cert;
}

}  // namespace

std::vector<TlsEndpoint> build_tls_population(const Internet& internet,
                                              const OffnetRegistry& registry,
                                              Snapshot snapshot,
                                              const PopulationConfig& config) {
  obs::ScopedSpan span("tls.build_population");
  const auto isps = internet.access_isps();
  // Collected in install order; sorted and deduplicated at the end.
  std::vector<TlsEndpoint> endpoints;
  endpoints.reserve(
      registry.servers().size() +
      all_hypergiants().size() *
          static_cast<std::size_t>(config.onnet_servers_per_hg) +
      isps.size() * static_cast<std::size_t>(config.background_per_isp) +
      static_cast<std::size_t>(config.decoy_count));
  const auto install = [&](Ipv4 ip, TlsCertificate cert) {
    endpoints.push_back({ip, std::move(cert)});
  };
  Rng rng(config.seed ^ mix64(static_cast<std::uint64_t>(snapshot)));

  // Offnet servers: hypergiant certificates in ISP address space.
  for (const OffnetServer& server : registry.servers()) {
    const Metro& metro =
        internet.metro_of_facility(server.facility);
    install(server.ip, make_offnet_certificate(server.hg, snapshot, metro.iata,
                                               server.site_ordinal, rng));
  }

  // Onnet servers: hypergiant certificates inside the hypergiant's own AS.
  for (const Hypergiant hg : all_hypergiants()) {
    const AsIndex hg_as = internet.as_by_asn(profile(hg).asn);
    const Prefix& infra = internet.ases[hg_as].infra.pool();
    for (int i = 0; i < config.onnet_servers_per_hg; ++i) {
      const std::uint64_t offset = 1000 + static_cast<std::uint64_t>(i);
      require(offset < infra.size(), "build_tls_population: onnet block small");
      install(infra.at(offset), make_onnet_certificate(hg, snapshot, rng));
    }
  }

  // Background ISP endpoints in user space.
  for (const AsIndex isp : isps) {
    const As& as = internet.ases[isp];
    if (as.user_prefixes.empty()) continue;
    const Prefix& space = as.user_prefixes.front();
    for (int i = 0; i < config.background_per_isp; ++i) {
      const auto offset = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(space.size()) - 1));
      install(space.at(offset), make_isp_certificate(as, snapshot, rng));
    }
  }

  // Decoys scattered across random access ISPs' infra space (worst case for
  // the classifier: lookalike cert in a plausible network).
  for (int i = 0; i < config.decoy_count && !isps.empty(); ++i) {
    const AsIndex isp = isps[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(isps.size()) - 1))];
    const Prefix& infra = internet.ases[isp].infra.pool();
    // Decoys live in the top of the infra block, clear of offnet servers.
    const std::uint64_t offset = infra.size() - 1 - static_cast<std::uint64_t>(i % 64);
    install(infra.at(offset), make_decoy_certificate(i, snapshot, rng));
  }

  // Sort (ip, install index) keys rather than the endpoints themselves:
  // equal IPs keep install order, so the last key of each IP run is that
  // IP's last install, which wins. Each kept endpoint is moved once.
  std::vector<std::uint64_t> keys(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    keys[i] = std::uint64_t{endpoints[i].ip.value()} << 32 | i;
  }
  std::ranges::sort(keys);
  std::vector<TlsEndpoint> population;
  population.reserve(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k + 1 < keys.size() && keys[k] >> 32 == keys[k + 1] >> 32) continue;
    population.push_back(std::move(endpoints[keys[k] & 0xFFFFFFFFu]));
  }
  obs::metrics().counter("tls.population_endpoints").add(population.size());
  return population;
}

}  // namespace repro
