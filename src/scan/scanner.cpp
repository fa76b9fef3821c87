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

std::vector<TlsEndpoint> Scanner::scan(
    std::vector<TlsEndpoint> population) const {
  obs::ScopedSpan span("scan.scan");
  // The miss draws follow IP order, so the order is what makes a scan
  // deterministic.
  require(std::ranges::adjacent_find(population, std::greater_equal{},
                                     &TlsEndpoint::ip) == population.end(),
          "Scanner: population not in ascending IP order");
  Rng rng(config_.seed);
  const std::size_t endpoints = population.size();
  auto kept = population.begin();
  for (auto it = population.begin(); it != population.end(); ++it) {
    if (rng.chance(config_.miss_rate)) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  population.erase(kept, population.end());
  obs::metrics().counter("scan.endpoints_total").add(endpoints);
  obs::metrics().counter("scan.records_total").add(population.size());
  obs::metrics().counter("scan.missed").add(endpoints - population.size());
  return population;
}

}  // namespace repro
