#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace repro {

Rng Rng::fork(std::uint64_t stream) noexcept {
  return Rng(next() ^ mix64(stream));
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Debiased modulo via rejection sampling.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t draw = next();
  while (draw >= limit) draw = next();
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "Rng::normal: negative stddev");
  return mean + stddev * normal();
}

double Rng::lognormal(double mu_log, double sigma_log) {
  require(sigma_log >= 0.0, "Rng::lognormal: negative sigma");
  return std::exp(normal(mu_log, sigma_log));
}

double Rng::exponential(double lambda) {
  require(lambda > 0.0, "Rng::exponential: lambda must be positive");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

double Rng::pareto(double x_min, double alpha) {
  require(x_min > 0.0, "Rng::pareto: x_min must be positive");
  require(alpha > 0.0, "Rng::pareto: alpha must be positive");
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return x_min / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  require(!weights.empty(), "Rng::weighted_index: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    require(w >= 0.0, "Rng::weighted_index: negative weight");
    total += w;
  }
  require(total > 0.0, "Rng::weighted_index: all weights zero");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: target rounded past the end
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  require(k <= n, "Rng::sample_indices: k > n");
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  require(n >= 1, "ZipfSampler: n must be >= 1");
  require(s >= 0.0, "ZipfSampler: exponent must be >= 0");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_[rank - 1] = total;
  }
  for (auto& value : cdf_) value /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

}  // namespace repro
