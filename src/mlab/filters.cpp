#include "mlab/filters.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace repro {

namespace {

bool finite(double value) noexcept { return std::isfinite(value); }

}  // namespace

bool violates_speed_of_light(const std::vector<double>& rtts,
                             const VantagePointSet& vps,
                             const FilterConfig& config) {
  // Gather finite measurements sorted ascending; test pairs among the lowest.
  std::vector<std::size_t> cols;
  cols.reserve(rtts.size());
  for (std::size_t i = 0; i < rtts.size(); ++i) {
    if (finite(rtts[i])) cols.push_back(i);
  }
  if (cols.size() < 2) return false;
  std::sort(cols.begin(), cols.end(),
            [&](std::size_t a, std::size_t b) { return rtts[a] < rtts[b]; });
  const std::size_t limit = std::min(cols.size(), config.sol_check_candidates);
  for (std::size_t i = 0; i < limit; ++i) {
    for (std::size_t j = i + 1; j < limit; ++j) {
      const double bound =
          propagation_ms(haversine_km(vps[cols[i]].location, vps[cols[j]].location));
      if (rtts[cols[i]] / 2.0 + rtts[cols[j]] / 2.0 + config.sol_tolerance_ms <
          bound) {
        return true;
      }
    }
  }
  return false;
}

FilteredMatrix clean_matrix(const LatencyMatrix& matrix,
                            const VantagePointSet& vps,
                            const FilterConfig& config) {
  return clean_matrix(LatencyMatrixRows(matrix), vps, config);
}

FilteredMatrix clean_matrix(const LatencyRows& rows, const VantagePointSet& vps,
                            const FilterConfig& config, bool materialize) {
  FilteredMatrix out;
  const std::size_t vp_count = rows.vp_count();

  // Pass 1: drop unresponsive and physically impossible rows.
  std::vector<double> rtts(vp_count);
  for (std::size_t row = 0; row < rows.row_count(); ++row) {
    const double* values = rows.row(row);
    bool any = false;
    for (std::size_t col = 0; col < vp_count; ++col) {
      rtts[col] = values[col];
      any = any || finite(rtts[col]);
    }
    if (!any) {
      ++out.dropped_unresponsive;
      continue;
    }
    if (violates_speed_of_light(rtts, vps, config)) {
      ++out.dropped_impossible;
      continue;
    }
    out.kept_rows.push_back(row);
  }

  // Pass 2: columns with successful measurements to all kept rows.
  for (std::size_t col = 0; col < vp_count; ++col) {
    bool all = !out.kept_rows.empty();
    for (const std::size_t row : out.kept_rows) {
      if (!finite(rows.row(row)[col])) {
        all = false;
        break;
      }
    }
    if (all) out.kept_cols.push_back(col);
  }

  out.usable = out.kept_cols.size() >= config.min_usable_sites &&
               !out.kept_rows.empty();

  // Pass 3: compact matrix, counting any failed measurement that slips
  // through (it would otherwise reach trimmed_manhattan as a silent NaN).
  // The leak scan runs even when the caller skips materialization, so the
  // `filters.*` counters below come out identical either way.
  if (materialize) {
    out.rtt.reserve(out.kept_rows.size() * out.kept_cols.size());
  }
  for (const std::size_t row : out.kept_rows) {
    const double* values = rows.row(row);
    for (const std::size_t col : out.kept_cols) {
      const double value = values[col];
      if (!finite(value)) ++out.nonfinite_leaked;
      if (materialize) out.rtt.push_back(value);
    }
  }

  // clean_matrix runs once per ISP on thread-pool workers (the clustering
  // fan-out), so these bumps must be safe under concurrent increments:
  // CachedCounter resolves the registry entry once and then does lock-free
  // atomic adds, and the totals are sums of per-ISP contributions, so they
  // are invariant under any interleaving (enforced by tests/test_parallel).
  static obs::CachedCounter nonfinite_leaked("filters.nonfinite_leaked");
  static obs::CachedCounter dropped_unresponsive(
      "filters.ips_dropped_unresponsive");
  static obs::CachedCounter dropped_speed_of_light(
      "filters.ips_dropped_speed_of_light");
  static obs::CachedCounter ips_kept("filters.ips_kept");
  static obs::CachedCounter vps_discarded("filters.vps_discarded");
  static obs::CachedCounter vps_kept("filters.vps_kept");
  static obs::CachedCounter below_min_sites("filters.isps_below_min_sites");
  nonfinite_leaked.add(out.nonfinite_leaked);
  dropped_unresponsive.add(out.dropped_unresponsive);
  dropped_speed_of_light.add(out.dropped_impossible);
  ips_kept.add(out.kept_rows.size());
  vps_discarded.add(vp_count - out.kept_cols.size());
  vps_kept.add(out.kept_cols.size());
  if (!out.usable) below_min_sites.add(1);
  return out;
}

void fill_compact_row(const LatencyRows& rows, const FilteredMatrix& filtered,
                      std::size_t compact_row, double* out) {
  const double* values = rows.row(filtered.kept_rows[compact_row]);
  for (std::size_t i = 0; i < filtered.kept_cols.size(); ++i) {
    out[i] = values[filtered.kept_cols[i]];
  }
}

}  // namespace repro
