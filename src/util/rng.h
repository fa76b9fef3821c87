// Deterministic random number generation.
//
// Every stochastic component of the reproduction takes an explicit Rng (or a
// seed) so that a whole experiment is reproducible from a single 64-bit seed.
// The generator is xoshiro256**, seeded via splitmix64, following the
// reference implementations by Blackman & Vigna.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace repro {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value (one splitmix64 round).
inline std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t state = value;
  return splitmix64(state);
}

/// Deterministic uniform double in [0, 1) from a key: the top 53 bits of
/// mix64(key). The stateless draw behind every keyed pathology and fault.
inline double hash_uniform(std::uint64_t key) noexcept {
  return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

/// Deterministic xoshiro256** generator with convenience distributions.
///
/// Not a std-style URBG on purpose: the distribution implementations in
/// libstdc++ are not stable across versions, and we need bit-for-bit
/// reproducible experiments. All distributions here are hand-rolled.
///
/// The integer hot path (seeding, next, uniform, chance) is inline: the
/// synthetic ping seeds one generator per (VP, IP) cell.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  /// Next raw 64-bit output.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator; `stream` distinguishes children
  /// created from the same parent state (e.g. one child per ISP id).
  Rng fork(std::uint64_t stream) noexcept;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept { return uniform() < std::clamp(p, 0.0, 1.0); }

  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;

  /// Normal with mean/stddev. Requires stddev >= 0.
  double normal(double mean, double stddev);

  /// Log-normal: exp(Normal(mu_log, sigma_log)). Requires sigma_log >= 0.
  double lognormal(double mu_log, double sigma_log);

  /// Exponential with rate lambda > 0.
  double exponential(double lambda);

  /// Pareto with scale x_min > 0 and shape alpha > 0 (heavy-tailed sizes).
  double pareto(double x_min, double alpha);

  /// Index in [0, weights.size()) drawn proportionally to `weights`.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipf sampler over ranks 1..n with exponent s, using precomputed CDF.
/// Models popularity skew (content popularity, ISP sizes).
class ZipfSampler {
 public:
  /// Requires n >= 1 and s >= 0.
  ZipfSampler(std::size_t n, double s);

  /// Rank in [1, n]; rank 1 is most popular.
  std::size_t sample(Rng& rng) const;

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace repro
