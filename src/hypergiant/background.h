// Builds the scan-visible TLS population for one snapshot: offnet servers
// (hypergiant certs inside ISP address space), onnet servers (hypergiant
// certs inside hypergiant ASes -- which the classifier must exclude), plus a
// background of unrelated ISP/enterprise certificates and deliberate
// lookalike decoys that a sloppy fingerprint would misclassify.
#pragma once

#include <cstdint>
#include <vector>

#include "hypergiant/deployment.h"
#include "tls/certificate.h"

namespace repro {

struct PopulationConfig {
  std::uint64_t seed = 4242;
  /// Background TLS endpoints per access ISP (web servers, mail, ...).
  int background_per_isp = 2;
  /// Onnet serving IPs per hypergiant.
  int onnet_servers_per_hg = 200;
  /// Lookalike decoys (certs with hypergiant-ish names that must NOT match).
  int decoy_count = 50;
};

/// The endpoints a Censys-style scan of this snapshot would see, in
/// ascending IP order, one per IP: where two installs share an IP, the later
/// one replaces the earlier. Certificates are interned as they are issued:
/// each distinct template is built and stored once, and each endpoint
/// carries its id and its own serial.
TlsEndpoints build_tls_population(const Internet& internet,
                                  const OffnetRegistry& registry,
                                  Snapshot snapshot,
                                  const PopulationConfig& config);

}  // namespace repro
