#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

namespace repro::obs {

namespace {

void atomic_update_min(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_update_max(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + value,
                                       std::memory_order_relaxed)) {
  }
}

constexpr std::size_t kSubBuckets = std::size_t{1} << Histogram::kSubBucketBits;

/// Quantizes a millisecond value to 1 ns units; non-positive and NaN
/// values land at 0, values past the representable range saturate so
/// bit_width below never exceeds 63.
std::uint64_t to_units(double value_ms) noexcept {
  if (!(value_ms > 0.0)) return 0;
  const double units = value_ms / Histogram::kUnitMs;
  if (units >= 9.0e18) return std::uint64_t{9000000000000000000u};
  return static_cast<std::uint64_t>(units);
}

}  // namespace

std::size_t Histogram::bucket_index(double value_ms) noexcept {
  const std::uint64_t n = to_units(value_ms);
  // The first two octaves [0, 2*kSubBuckets) are exact unit buckets; above
  // that, 32 equal sub-buckets per power-of-two octave.
  if (n < 2 * kSubBuckets) return static_cast<std::size_t>(n);
  const int k = std::bit_width(n) - 1;  // n in [2^k, 2^(k+1))
  const int shift = k - static_cast<int>(kSubBucketBits);
  const std::uint64_t sub = n >> shift;  // in [kSubBuckets, 2*kSubBuckets)
  return static_cast<std::size_t>(shift + 1) * kSubBuckets +
         static_cast<std::size_t>(sub - kSubBuckets);
}

double Histogram::bucket_lower_ms(std::size_t index) noexcept {
  if (index < 2 * kSubBuckets) return static_cast<double>(index) * kUnitMs;
  const std::size_t shift = index / kSubBuckets - 1;
  const std::uint64_t sub = index % kSubBuckets + kSubBuckets;
  return static_cast<double>(sub) * static_cast<double>(std::uint64_t{1} << shift) *
         kUnitMs;
}

double Histogram::bucket_upper_ms(std::size_t index) noexcept {
  if (index < 2 * kSubBuckets) {
    return static_cast<double>(index + 1) * kUnitMs;
  }
  const std::size_t shift = index / kSubBuckets - 1;
  const std::uint64_t sub = index % kSubBuckets + kSubBuckets;
  return static_cast<double>(sub + 1) *
         static_cast<double>(std::uint64_t{1} << shift) * kUnitMs;
}

void Histogram::record(double value) noexcept {
  counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_update_min(min_, value);
  atomic_update_max(max_, value);
}

double Histogram::percentile(double p) const noexcept {
  return snapshot().percentile(p);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.count = count();
  out.sum = sum();
  if (out.count > 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    out.buckets.push_back({static_cast<std::uint32_t>(i), bucket_lower_ms(i),
                           bucket_upper_ms(i), c});
  }
  out.p50 = out.percentile(50.0);
  out.p90 = out.percentile(90.0);
  out.p99 = out.percentile(99.0);
  return out;
}

double HistogramSnapshot::percentile(double p) const noexcept {
  std::uint64_t total = 0;
  for (const HistogramBucket& bucket : buckets) total += bucket.count;
  if (total == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (const HistogramBucket& bucket : buckets) {
    const double before = static_cast<double>(cumulative);
    cumulative += bucket.count;
    if (static_cast<double>(cumulative) < rank) continue;
    // Interpolate inside the bucket, clamped to the observed extremes so
    // p0/p100 are exact and everything else stays within one bucket width.
    double lo = std::max(min, bucket.lo_ms);
    double hi = std::min(max, bucket.hi_ms);
    if (hi < lo) hi = lo;
    const double frac = (rank - before) / static_cast<double>(bucket.count);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max;
}

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // less<> enables heterogeneous (string_view) lookup without allocating.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  // Bumped by reset() so cached handles know to re-resolve.
  std::atomic<std::uint64_t> generation{0};
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->counters.find(name);
  if (it != impl_->counters.end()) return *it->second;
  return *impl_->counters.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end()) return *it->second;
  return *impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->histograms.find(name);
  if (it != impl_->histograms.end()) return *it->second;
  return *impl_->histograms
              .emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  MetricsSnapshot out;
  out.counters.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, histogram] : impl_->histograms) {
    out.histograms.emplace_back(name, histogram->snapshot());
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->counters.clear();
  impl_->gauges.clear();
  impl_->histograms.clear();
  // Release so a handle that observes the new generation also observes the
  // cleared maps when it re-resolves (the lookup takes the mutex anyway).
  impl_->generation.fetch_add(1, std::memory_order_release);
}

std::uint64_t MetricsRegistry::generation() const noexcept {
  return impl_->generation.load(std::memory_order_acquire);
}

Counter& CachedCounter::resolve() {
  const std::uint64_t gen = metrics().generation();
  if (generation_.load(std::memory_order_acquire) == gen) {
    // The acquire above pairs with the release below, so the pointer read
    // here is at least as new as the generation just observed.
    Counter* cached = counter_.load(std::memory_order_relaxed);
    if (cached != nullptr) return *cached;
  }
  // Stale (or first use): take the slow path once. The pointer is published
  // before the generation so a reader that sees the new generation also sees
  // the new pointer.
  Counter& fresh = metrics().counter(name_);
  counter_.store(&fresh, std::memory_order_relaxed);
  generation_.store(gen, std::memory_order_release);
  return fresh;
}

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ScopedTimer::ScopedTimer(std::string_view histogram_name) {
  if (!tracing_enabled()) return;
  histogram_ = &metrics().histogram(histogram_name);
  start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr) return;
  histogram_->record(static_cast<double>(now_ns() - start_ns_) / 1e6);
}

}  // namespace repro::obs
