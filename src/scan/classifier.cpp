#include "scan/classifier.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace repro {

std::size_t HypergiantFootprint::ip_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [isp, ips] : by_isp) {
    (void)isp;
    total += ips.size();
  }
  return total;
}

std::size_t DiscoveryReport::total_offnet_ips() const noexcept {
  std::size_t total = 0;
  for (const auto& footprint : footprints) total += footprint.ip_count();
  return total;
}

std::vector<AsIndex> DiscoveryReport::isps_hosting_at_least(
    int min_hypergiants) const {
  std::map<AsIndex, int> counts;
  for (const auto& footprint : footprints) {
    for (const auto& [isp, ips] : footprint.by_isp) {
      (void)ips;
      ++counts[isp];
    }
  }
  std::vector<AsIndex> out;
  for (const auto& [isp, count] : counts) {
    if (count >= min_hypergiants) out.push_back(isp);
  }
  return out;
}

int DiscoveryReport::hypergiants_at(AsIndex isp) const noexcept {
  int count = 0;
  for (const auto& footprint : footprints) {
    if (footprint.by_isp.contains(isp)) ++count;
  }
  return count;
}

OffnetClassifier::OffnetClassifier(const Internet& internet,
                                   Methodology methodology)
    : internet_(internet), methodology_(methodology) {}

DiscoveryReport OffnetClassifier::classify(const TlsEndpoints& records) const {
  obs::ScopedSpan span("scan.classify");
  DiscoveryReport report;
  report.methodology = methodology_;
  for (std::size_t i = 0; i < kHypergiantCount; ++i) {
    report.footprints[i].hg = static_cast<Hypergiant>(i);
  }
  std::array<std::uint64_t, kHypergiantCount> matched{};
  std::uint64_t unrouted = 0;
  std::uint64_t in_hg_as_count = 0;

  // Any hypergiant's own AS disqualifies an IP from being an offnet of any
  // hypergiant (the methodology looks for certs in *other* networks).
  std::array<AsIndex, kHypergiantCount> hg_as{};
  for (const Hypergiant hg : all_hypergiants()) {
    hg_as[static_cast<std::size_t>(hg)] = internet_.as_by_asn(profile(hg).asn);
  }

  // Bit h of a certificate's mask: hypergiant h's fingerprint accepts it.
  static_assert(kHypergiantCount <= 8);
  std::vector<std::uint8_t> masks(records.certs.size(), 0);
  for (std::size_t id = 0; id < masks.size(); ++id) {
    for (const Hypergiant hg : all_hypergiants()) {
      if (certificate_matches(records.certs[id], hg, methodology_)) {
        masks[id] |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(hg));
      }
    }
  }

  for (const TlsEndpoint& record : records.endpoints) {
    const auto owner = internet_.as_of_ip(record.ip);
    if (!owner) {  // unrouted space
      ++unrouted;
      continue;
    }
    const bool in_hypergiant_as =
        std::find(hg_as.begin(), hg_as.end(), *owner) != hg_as.end();
    if (in_hypergiant_as) {
      ++in_hg_as_count;
      continue;
    }
    const std::uint8_t mask = masks[record.cert];
    if (mask == 0) continue;
    for (const Hypergiant hg : all_hypergiants()) {
      if ((mask >> static_cast<unsigned>(hg) & 1u) == 0) continue;
      ++matched[static_cast<std::size_t>(hg)];
      report.footprints[static_cast<std::size_t>(hg)].by_isp[*owner].push_back(
          record.ip);
    }
  }
  for (const Hypergiant hg : all_hypergiants()) {
    obs::metrics()
        .counter("certs.matched." + std::string(to_string(hg)))
        .add(matched[static_cast<std::size_t>(hg)]);
  }
  obs::metrics().counter("classify.records_unrouted").add(unrouted);
  obs::metrics().counter("classify.records_in_hypergiant_as")
      .add(in_hg_as_count);
  return report;
}

}  // namespace repro
