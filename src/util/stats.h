// Descriptive statistics and distribution summaries used by the analysis
// pipeline and the experiment reports (CCDFs, percentiles, histograms).
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace repro {

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const double> values) noexcept;

/// Population variance; 0 for inputs with fewer than 2 elements.
double variance(std::span<const double> values) noexcept;

/// Population standard deviation.
double stddev(std::span<const double> values) noexcept;

/// Median (average of the two middle order statistics for even sizes).
/// Requires a non-empty input.
double median(std::span<const double> values);

/// Linear-interpolated percentile, q in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> values, double q);

/// One point of an empirical CCDF: fraction of mass with value >= x.
struct CcdfPoint {
  double x = 0.0;
  double fraction = 0.0;
};

/// Empirical weighted CCDF. `weights` may be empty (all weights 1) or must
/// match `values` in size. Points are sorted by x ascending; `fraction` at a
/// point x is the weighted fraction of samples with value >= x.
std::vector<CcdfPoint> weighted_ccdf(std::span<const double> values,
                                     std::span<const double> weights);

/// Evaluates a CCDF (as produced by weighted_ccdf) at x: the weighted
/// fraction of samples with value >= x.
double ccdf_at(const std::vector<CcdfPoint>& ccdf, double x) noexcept;

/// Fixed-width histogram over [lo, hi) with `bins` buckets; values outside
/// the range are clamped into the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value, double weight = 1.0) noexcept;

  std::size_t bins() const noexcept { return counts_.size(); }
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const;
  double count(std::size_t i) const;
  double total() const noexcept { return total_; }
  /// count(i) / total(); 0 when empty.
  double fraction(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace repro
