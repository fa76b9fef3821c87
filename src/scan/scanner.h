// A Censys-style Internet-wide port-443 scan: walks the TLS population and
// emits certificate records, with configurable miss rate (real scans never
// see every host: firewalls, rate limits, churn).
#pragma once

#include <cstdint>
#include <vector>

#include "tls/certificate.h"
#include "util/rng.h"

namespace repro {

struct ScannerConfig {
  std::uint64_t seed = 1337;
  /// Probability that a live endpoint is missed by the scan.
  double miss_rate = 0.01;
};

/// Runs one scan over a snapshot's TLS population.
class Scanner {
 public:
  explicit Scanner(ScannerConfig config);

  /// The endpoints of `population` (in ascending IP order, as
  /// build_tls_population returns it) that the scan sees, in the same
  /// order, with the population's certificate table. The population is
  /// consumed: the records reuse its storage.
  TlsEndpoints scan(TlsEndpoints population) const;

 private:
  ScannerConfig config_;
};

}  // namespace repro
