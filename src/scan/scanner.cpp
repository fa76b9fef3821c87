#include "scan/scanner.h"

#include <algorithm>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace repro {

Scanner::Scanner(ScannerConfig config) : config_(config) {
  require(config_.miss_rate >= 0.0 && config_.miss_rate < 1.0,
          "ScannerConfig: miss_rate outside [0, 1)");
}

TlsEndpoints Scanner::scan(TlsEndpoints population) const {
  obs::ScopedSpan span("scan.scan");
  std::vector<TlsEndpoint>& seen = population.endpoints;
  // The miss draws follow IP order, so the order is what makes a scan
  // deterministic.
  require(std::ranges::adjacent_find(seen, std::greater_equal{},
                                     &TlsEndpoint::ip) == seen.end(),
          "Scanner: population not in ascending IP order");
  Rng rng(config_.seed);
  const std::size_t endpoints = seen.size();
  auto kept = seen.begin();
  for (const TlsEndpoint& endpoint : seen) {
    if (rng.chance(config_.miss_rate)) continue;
    *kept++ = endpoint;
  }
  seen.erase(kept, seen.end());
  obs::metrics().counter("scan.endpoints_total").add(endpoints);
  obs::metrics().counter("scan.records_total").add(population.size());
  obs::metrics().counter("scan.missed").add(endpoints - population.size());
  return population;
}

}  // namespace repro
