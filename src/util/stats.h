// Descriptive statistics and distribution summaries used by the analysis
// pipeline and the experiment reports (CCDFs, medians, percentiles).
#pragma once

#include <span>
#include <vector>

namespace repro {

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

}  // namespace repro
