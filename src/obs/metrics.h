// Process-global metrics for the reproduction pipeline: named counters,
// gauges, and HDR-style log-linear histograms with percentile accessors.
//
// Counters are always on (stage code does cheap bulk adds at stage
// boundaries), so a run's domain numbers -- IPs scanned, certs matched per
// hypergiant, vantage points dropped by the Appendix-A filters, clusters per
// xi -- are available whether or not tracing is enabled. Timing helpers
// (ScopedTimer) are gated on the tracing toggle so the disabled path never
// reads a clock.
//
// Histogram bucket scheme (fixed for every histogram in the process, so
// snapshots are comparable bucket for bucket):
//   - values are milliseconds, quantized to 1 ns units (n = value / 1e-6);
//   - n < 64 falls in exact unit buckets [n, n+1);
//   - larger n falls in one of 32 equal sub-buckets of its octave
//     [2^k, 2^(k+1)), i.e. a log-linear layout with ~3% relative width;
//   - 1920 buckets cover the whole uint64 unit range (sub-ns .. ~213 days).
// Because the boundaries are a pure function of the bucket index,
// percentiles read straight off the buckets (the report service's p50/p99
// queries).
//
// All metric objects are thread-safe and live for the process lifetime;
// references returned by the registry stay valid forever, so hot paths can
// look a metric up once and keep the reference.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace repro::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// One occupied bucket of a snapshot. `index` addresses the global
/// log-linear layout; lo_ms/hi_ms are the reconstructed bounds
/// (value range is [lo_ms, hi_ms)).
struct HistogramBucket {
  std::uint32_t index = 0;
  double lo_ms = 0.0;
  double hi_ms = 0.0;
  std::uint64_t count = 0;
};

/// Point-in-time copy of a histogram for export.
/// Only occupied buckets are stored, sorted by index.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<HistogramBucket> buckets;

  /// Estimated value at percentile `p` in [0, 100], monotone in p and
  /// within one bucket width of the exact value; 0 when empty.
  double percentile(double p) const noexcept;
};

/// Log-linear histogram with atomically updated dense bucket counts. All
/// histograms share the same fixed bucket layout (see file comment), so
/// there is nothing to configure at construction.
class Histogram {
 public:
  static constexpr std::size_t kSubBucketBits = 5;  // 32 sub-buckets/octave
  static constexpr std::size_t kBucketCount = 1920;
  static constexpr double kUnitMs = 1e-6;  // 1 ns per unit

  Histogram() = default;

  /// Index of the bucket containing `value_ms` (<= 0, NaN land in bucket 0).
  static std::size_t bucket_index(double value_ms) noexcept;
  /// Inclusive lower / exclusive upper bound of bucket `index`, in ms.
  static double bucket_lower_ms(std::size_t index) noexcept;
  static double bucket_upper_ms(std::size_t index) noexcept;

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Estimated value at percentile `p` in [0, 100]; 0 when empty.
  double percentile(double p) const noexcept;
  double p50() const noexcept { return percentile(50.0); }
  double p90() const noexcept { return percentile(90.0); }
  double p99() const noexcept { return percentile(99.0); }

  HistogramSnapshot snapshot() const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Everything the registry holds, copied for export.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Thread-safe name -> metric registry. Lookup is a mutex-guarded map find
/// (heterogeneous, so string_view keys do not allocate); creation happens on
/// first use. Returned references are stable for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Drops every metric (tests). Outstanding references go stale; a
  /// CachedCounter notices via generation() and re-resolves.
  void reset();

  /// Bumped by every reset(); lets cached handles detect staleness.
  std::uint64_t generation() const noexcept;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry();
  struct Impl;
  Impl* impl_;
};

/// Shorthand for the global registry.
inline MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

/// Counter handle that caches the registry lookup, for per-call hot paths
/// (e.g. one count per routing-table computation) where a mutex-guarded map
/// find per event would show up in benchmarks. Typically a function-local
/// static. Stays correct across MetricsRegistry::reset(): the handle
/// re-resolves when the registry generation changes.
class CachedCounter {
 public:
  explicit CachedCounter(std::string_view name) : name_(name) {}

  void add(std::uint64_t n = 1) { resolve().add(n); }

  CachedCounter(const CachedCounter&) = delete;
  CachedCounter& operator=(const CachedCounter&) = delete;

 private:
  Counter& resolve();

  std::string name_;
  std::atomic<Counter*> counter_{nullptr};
  // ~0 never matches a real generation, so first use takes the slow path.
  std::atomic<std::uint64_t> generation_{~std::uint64_t{0}};
};

/// Records the elapsed milliseconds of its scope into a histogram, but only
/// when tracing is enabled -- the disabled path is one atomic load.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view histogram_name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;  // null when tracing is disabled
  std::uint64_t start_ns_ = 0;
};

}  // namespace repro::obs
