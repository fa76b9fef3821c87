#include "hypergiant/background.h"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "hypergiant/certs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace repro {

namespace {

TlsCertificate isp_certificate(const As& as, Snapshot snapshot) {
  TlsCertificate cert;
  cert.subject.common_name = "www." + to_lower(as.name) + ".example.net";
  cert.subject.organization = as.name + " Communications";
  cert.issuer_organization = "Let's Encrypt";
  cert.san_dns = {cert.subject.common_name};
  cert.not_before_year = snapshot_year(snapshot) - 1;
  cert.not_after_year = snapshot_year(snapshot);
  return cert;
}

/// Decoys exercise classifier specificity: hypergiant-ish strings that must
/// not match the fingerprints (wrong suffix, wrong org, lookalike domains).
TlsCertificate decoy_certificate(int ordinal, Snapshot snapshot) {
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
  return cert;
}

}  // namespace

TlsEndpoints build_tls_population(const Internet& internet,
                                  const OffnetRegistry& registry,
                                  Snapshot snapshot,
                                  const PopulationConfig& config) {
  obs::ScopedSpan span("tls.build_population");
  const auto isps = internet.access_isps();
  TlsEndpoints population;
  CertInterner table(population.certs);
  // Collected in install order; sorted and deduplicated at the end.
  std::vector<TlsEndpoint> endpoints;
  endpoints.reserve(
      registry.servers().size() +
      all_hypergiants().size() *
          static_cast<std::size_t>(config.onnet_servers_per_hg) +
      isps.size() * static_cast<std::size_t>(config.background_per_isp) +
      static_cast<std::size_t>(config.decoy_count));
  // Every server draws its serial (and Meta's 2023 rack) in the order the
  // certificate factories always drew them, so the RNG stream -- and with
  // it every IP pick below -- does not depend on the interning.
  Rng rng(config.seed ^ mix64(static_cast<std::uint64_t>(snapshot)));

  // Offnet servers: hypergiant certificates in ISP address space. A
  // template is built on its first server only: keyed by the hypergiant,
  // plus the metro, site and rack when the name is site-specific.
  std::map<std::tuple<Hypergiant, MetroIndex, int, int>, std::uint32_t>
      offnet_ids;
  for (const OffnetServer& server : registry.servers()) {
    const Metro& metro = internet.metro_of_facility(server.facility);
    const OffnetCertDraws draws =
        draw_offnet_certificate(server.hg, snapshot, rng);
    const bool site_specific = draws.rack_ordinal != 0;
    const auto [it, fresh] = offnet_ids.try_emplace(
        {server.hg, site_specific ? metro.index : kInvalidIndex,
         site_specific ? server.site_ordinal : 0, draws.rack_ordinal});
    if (fresh) {
      it->second = table.intern(offnet_certificate(
          server.hg, snapshot, metro.iata, server.site_ordinal,
          draws.rack_ordinal));
    }
    endpoints.push_back({server.ip, it->second, draws.serial});
  }

  // Onnet servers: hypergiant certificates inside the hypergiant's own AS.
  for (const Hypergiant hg : all_hypergiants()) {
    if (config.onnet_servers_per_hg <= 0) break;
    const AsIndex hg_as = internet.as_by_asn(profile(hg).asn);
    const Prefix& infra = internet.ases[hg_as].infra.pool();
    const std::uint32_t cert = table.intern(onnet_certificate(hg, snapshot));
    for (int i = 0; i < config.onnet_servers_per_hg; ++i) {
      const std::uint64_t offset = 1000 + static_cast<std::uint64_t>(i);
      require(offset < infra.size(), "build_tls_population: onnet block small");
      endpoints.push_back({infra.at(offset), cert, rng.next()});
    }
  }

  // Background ISP endpoints in user space: one template per AS.
  for (const AsIndex isp : isps) {
    if (config.background_per_isp <= 0) break;
    const As& as = internet.ases[isp];
    if (as.user_prefixes.empty()) continue;
    const Prefix& space = as.user_prefixes.front();
    const std::uint32_t cert = table.intern(isp_certificate(as, snapshot));
    for (int i = 0; i < config.background_per_isp; ++i) {
      const auto offset = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(space.size()) - 1));
      endpoints.push_back({space.at(offset), cert, rng.next()});
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
    const std::uint32_t cert = table.intern(decoy_certificate(i, snapshot));
    endpoints.push_back({infra.at(offset), cert, rng.next()});
  }

  // Sort (ip, install index) keys rather than the endpoints themselves:
  // equal IPs keep install order, so the last key of each IP run is that
  // IP's last install, which wins.
  std::vector<std::uint64_t> keys(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    keys[i] = std::uint64_t{endpoints[i].ip.value()} << 32 | i;
  }
  std::ranges::sort(keys);
  population.endpoints.reserve(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k + 1 < keys.size() && keys[k] >> 32 == keys[k + 1] >> 32) continue;
    population.endpoints.push_back(endpoints[keys[k] & 0xFFFFFFFFu]);
  }
  obs::metrics().counter("tls.population_endpoints").add(population.size());
  return population;
}

}  // namespace repro
