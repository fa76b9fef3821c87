// The offnet discovery pipeline (Section 2.2): classify scanned certificates
// with the per-hypergiant fingerprints, attribute IPs to ASes, and keep only
// hypergiant certificates served from *other* organizations' networks.
#pragma once

#include <array>
#include <map>
#include <vector>

#include "scan/fingerprint.h"
#include "tls/certificate.h"
#include "topology/internet.h"

namespace repro {

/// Offnets found for one hypergiant: host ISP -> offnet IPs there.
struct HypergiantFootprint {
  Hypergiant hg = Hypergiant::kGoogle;
  std::map<AsIndex, std::vector<Ipv4>> by_isp;

  std::size_t isp_count() const noexcept { return by_isp.size(); }
  std::size_t ip_count() const noexcept;
};

/// Full discovery result for one scan.
struct DiscoveryReport {
  Methodology methodology = Methodology::k2023;
  std::array<HypergiantFootprint, kHypergiantCount> footprints;

  const HypergiantFootprint& footprint(Hypergiant hg) const noexcept {
    return footprints[static_cast<std::size_t>(hg)];
  }

  /// Total offnet IPs across hypergiants.
  std::size_t total_offnet_ips() const noexcept;

  /// ISPs hosting at least `min_hypergiants` distinct hypergiants.
  std::vector<AsIndex> isps_hosting_at_least(int min_hypergiants) const;

  /// Number of distinct hypergiants discovered at `isp`.
  int hypergiants_at(AsIndex isp) const noexcept;
};

/// Applies a methodology's fingerprints to scan records. The fingerprints
/// read only the certificate, so each distinct certificate of the records'
/// table is matched once; the per-record pass attributes IPs to ASes.
class OffnetClassifier {
 public:
  OffnetClassifier(const Internet& internet, Methodology methodology);

  /// Every endpoint's cert id must index `records.certs`.
  DiscoveryReport classify(const TlsEndpoints& records) const;

 private:
  const Internet& internet_;
  Methodology methodology_;
};

}  // namespace repro
