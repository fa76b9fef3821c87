#include "util/stats.h"

#include <algorithm>

#include "util/error.h"

namespace repro {

double median(std::span<const double> values) {
  return percentile(values, 50.0);
}

double percentile(std::span<const double> values, double q) {
  require(!values.empty(), "percentile: empty input");
  require(q >= 0.0 && q <= 100.0, "percentile: q outside [0, 100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(below);
  if (below + 1 >= sorted.size()) return sorted.back();
  return sorted[below] * (1.0 - frac) + sorted[below + 1] * frac;
}

std::vector<CcdfPoint> weighted_ccdf(std::span<const double> values,
                                     std::span<const double> weights) {
  require(weights.empty() || weights.size() == values.size(),
          "weighted_ccdf: weights size mismatch");
  std::vector<std::pair<double, double>> samples;
  samples.reserve(values.size());
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    require(w >= 0.0, "weighted_ccdf: negative weight");
    samples.emplace_back(values[i], w);
    total += w;
  }
  std::vector<CcdfPoint> result;
  if (samples.empty() || total <= 0.0) return result;
  std::sort(samples.begin(), samples.end());
  result.reserve(samples.size());
  // Walk ascending; mass >= x is total minus mass strictly below x.
  double mass_below = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!result.empty() && samples[i].first == result.back().x) {
      mass_below += samples[i].second;
      continue;
    }
    result.push_back({samples[i].first, (total - mass_below) / total});
    mass_below += samples[i].second;
  }
  return result;
}

double ccdf_at(const std::vector<CcdfPoint>& ccdf, double x) noexcept {
  // Find the first point with point.x >= x; its fraction is mass >= point.x,
  // and there is no mass between x and point.x, so that is mass >= x.
  for (const auto& point : ccdf) {
    if (point.x >= x) return point.fraction;
  }
  return 0.0;
}

}  // namespace repro
