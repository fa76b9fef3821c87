#include "cluster/optics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace repro {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Steepness predicates on the reachability plot. Both are false when the
/// two values are both infinite (a flat stretch of component starts is not
/// steep).
bool steep_down_at(const std::vector<double>& r, std::size_t i,
                   double xi_complement) noexcept {
  if (std::isinf(r[i]) && std::isinf(r[i + 1])) return false;
  return r[i] * xi_complement >= r[i + 1];
}

bool steep_up_at(const std::vector<double>& r, std::size_t i,
                 double xi_complement) noexcept {
  if (std::isinf(r[i]) && std::isinf(r[i + 1])) return false;
  return r[i] <= r[i + 1] * xi_complement;
}

bool down_at(const std::vector<double>& r, std::size_t i) noexcept {
  return r[i] >= r[i + 1];
}

bool up_at(const std::vector<double>& r, std::size_t i) noexcept {
  return r[i] <= r[i + 1];
}

/// Per-thread scratch for extract_xi_clusters: the xi sweeps and the
/// resident report service re-extract clusters over the same ordering for
/// many xi values, so the working buffers are reused across calls instead
/// of reallocated (the reachability copy plus sentinel, the prefix-max
/// array behind the tail correction, and the per-steep-up-area cluster
/// staging).
struct XiScratch {
  std::vector<double> r;
  std::vector<double> prefix_max;
  std::vector<std::pair<std::size_t, std::size_t>> u_clusters;
};

XiScratch& xi_scratch() {
  thread_local XiScratch scratch;
  return scratch;
}

/// Extends a steep region starting at `start` (Ankerst Definition 11 /
/// sklearn _extend_region): the region continues through weakly-monotonic
/// points, tolerating at most min_pts consecutive non-steep points, and ends
/// at the last steep point seen.
template <typename SteepFn, typename MonoFn>
std::size_t extend_region(std::size_t start, std::size_t last,
                          std::size_t min_pts, SteepFn steep, MonoFn mono) {
  std::size_t non_steep = 0;
  std::size_t end = start;
  for (std::size_t index = start; index < last; ++index) {
    if (steep(index)) {
      non_steep = 0;
      end = index;
    } else if (mono(index)) {
      ++non_steep;
      if (non_steep > min_pts) break;
    } else {
      break;
    }
  }
  return end;
}

struct SteepDownArea {
  std::size_t start = 0;
  std::size_t end = 0;
  double mib = 0.0;  // maximum reachability seen after the area closed
};

/// Drops steep-down areas invalidated by the running maximum `mib` and
/// refreshes the survivors' mib values (sklearn _update_filter_sdas).
void update_filter_sdas(std::vector<SteepDownArea>& sdas, double mib,
                        double xi_complement, const std::vector<double>& r) {
  if (std::isinf(mib)) {
    sdas.clear();
    return;
  }
  std::erase_if(sdas, [&](const SteepDownArea& sda) {
    return mib > r[sda.start] * xi_complement;
  });
  for (auto& sda : sdas) sda.mib = std::max(sda.mib, mib);
}

}  // namespace

void optics_order(const DistanceMatrix& distances, std::size_t min_pts,
                  OpticsResult& result) {
  const std::size_t n = distances.size();
  result.ordering.clear();
  result.reachability.clear();
  result.ordering.reserve(n);
  result.reachability.reserve(n);
  result.core_distance.assign(n, kInf);

  // Core distance: distance to the (min_pts)-th closest point, counting the
  // point itself (sklearn's min_samples convention; min_pts = 2 means the
  // nearest other point). One scratch row reused across all points, filled
  // row-wise from the packed triangle instead of n per-element at() calls.
  // nth_element is kept: the *value* at the rank is uniquely determined, so
  // unlike a prefix sum it cannot depend on the stdlib's partition order.
  if (n >= min_pts) {
    std::vector<double> row(n - 1);
    for (std::size_t p = 0; p < n; ++p) {
      distances.copy_row_without_self(p, row.data());
      const std::size_t rank = min_pts - 2;  // 0-based among *other* points
      std::nth_element(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(rank),
                       row.end());
      result.core_distance[p] = row[rank];
    }
  }

  std::vector<char> processed(n, 0);   // byte flags beat vector<bool> bit ops
  std::vector<double> reach(n, kInf);
  std::vector<double> current_row(n);  // reused: distances from `current`

  // Compacted list of unprocessed point ids, swap-removed as points enter
  // the ordering. The reach-update and next-point scans walk only this list,
  // so the per-expansion work shrinks with the frontier instead of staying
  // O(n) with a processed[] branch per point -- and the two scans fuse into
  // one pass, since every survivor's reach is final for the step once its
  // update lands.
  std::vector<std::uint32_t> remaining(n);
  std::vector<std::uint32_t> slot(n);  // slot[id] = index of id in remaining
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = static_cast<std::uint32_t>(i);
    slot[i] = static_cast<std::uint32_t>(i);
  }
  const auto remove_remaining = [&](std::uint32_t id) {
    const std::uint32_t at = slot[id];
    const std::uint32_t moved = remaining.back();
    remaining[at] = moved;
    slot[moved] = at;
    remaining.pop_back();
  };

  for (std::size_t seed = 0; seed < n; ++seed) {
    if (processed[seed]) continue;
    std::size_t current = seed;
    while (true) {
      processed[current] = 1;
      remove_remaining(static_cast<std::uint32_t>(current));
      result.ordering.push_back(current);
      result.reachability.push_back(reach[current]);

      // Next: unprocessed point with the smallest reachability (ties to the
      // smallest index -- the order of `remaining` is scan-order dependent,
      // so the tie-break keys on the id, which is deterministic).
      std::uint32_t next = static_cast<std::uint32_t>(n);
      double next_reach = kInf;
      if (std::isfinite(result.core_distance[current])) {
        // One row-wise copy from the packed triangle, then direct indexing:
        // the per-element at() recomputed the packed offset (with bounds
        // checks) for every neighbor on every expansion.
        distances.copy_row(current, current_row.data());
        const double core = result.core_distance[current];
        for (const std::uint32_t o : remaining) {
          const double candidate = std::max(core, current_row[o]);
          const double updated = std::min(reach[o], candidate);
          reach[o] = updated;
          if (updated < next_reach || (updated == next_reach && o < next)) {
            next = o;
            next_reach = updated;
          }
        }
      } else {
        for (const std::uint32_t o : remaining) {
          const double value = reach[o];
          if (value < next_reach || (value == next_reach && o < next)) {
            next = o;
            next_reach = value;
          }
        }
      }
      if (next == n || std::isinf(next_reach)) break;  // component exhausted
      current = next;
    }
  }
}

std::vector<std::pair<std::size_t, std::size_t>> extract_xi_clusters(
    const std::vector<double>& reachability, std::size_t min_pts, double xi,
    std::size_t min_cluster_size) {
  require(xi > 0.0 && xi < 1.0, "extract_xi_clusters: xi outside (0, 1)");
  const double xi_complement = 1.0 - xi;
  const std::size_t n = reachability.size();
  std::vector<std::pair<std::size_t, std::size_t>> clusters;
  if (n < 2) return clusters;

  // Sentinel: an infinite value after the end lets the final steep-up close.
  // The copy lives in per-thread scratch: xi sweeps re-extract over the same
  // ordering dozens of times, and the copy's only job is to carry the
  // sentinel without mutating the caller's buffer.
  XiScratch& scratch = xi_scratch();
  std::vector<double>& r = scratch.r;
  r.resize(n + 1);
  std::copy(reachability.begin(), reachability.end(), r.begin());
  r[n] = kInf;
  const std::size_t last = n;  // valid comparisons are r[i] vs r[i+1], i < n

  std::vector<SteepDownArea> sdas;
  std::size_t index = 0;
  double mib = 0.0;
  const auto steep_down = [&](std::size_t i) {
    return steep_down_at(r, i, xi_complement);
  };
  const auto steep_up = [&](std::size_t i) { return steep_up_at(r, i, xi_complement); };
  const auto down = [&](std::size_t i) { return down_at(r, i); };
  const auto up = [&](std::size_t i) { return up_at(r, i); };

  while (index < last) {
    mib = std::max(mib, r[index]);
    if (steep_down(index)) {
      update_filter_sdas(sdas, mib, xi_complement, r);
      const std::size_t d_start = index;
      const std::size_t d_end =
          extend_region(d_start, last, min_pts, steep_down, down);
      sdas.push_back(SteepDownArea{d_start, d_end, 0.0});
      index = d_end + 1;
      mib = index <= last ? r[index] : 0.0;
    } else if (steep_up(index)) {
      update_filter_sdas(sdas, mib, xi_complement, r);
      const std::size_t u_start = index;
      const std::size_t u_end =
          extend_region(u_start, last, min_pts, steep_up, up);
      index = u_end + 1;
      mib = index <= last ? r[index] : 0.0;

      std::vector<std::pair<std::size_t, std::size_t>>& u_clusters =
          scratch.u_clusters;
      u_clusters.clear();
      std::vector<double>& prefix_max = scratch.prefix_max;
      for (const SteepDownArea& sda : sdas) {
        std::size_t c_start = sda.start;
        std::size_t c_end = u_end;
        // Reject if reachability rose too much between the areas (4b).
        if (sda.mib > r[c_end + 1] * xi_complement) continue;
        // Boundary adjustment (condition 4 of Ankerst et al.).
        const double d_max = r[sda.start];
        if (std::isinf(d_max) ||
            d_max * xi_complement >= r[c_end + 1]) {
          while (c_start < sda.end && r[c_start + 1] > r[c_end + 1]) ++c_start;
        } else if (r[c_end + 1] * xi_complement >= d_max) {
          while (c_end > u_start && r[c_end] > d_max) --c_end;
        }
        // Tail correction (the role of sklearn's predecessor correction):
        // drop trailing points whose reachability rises steeply above the
        // cluster's internal level -- e.g. a lone outlier swallowed because
        // the sentinel makes the final rise look steep-up. The internal
        // maximum over (c_start, c_end) shrinks from the right as the tail
        // peels, so one prefix-max pass answers every trim test in O(1)
        // instead of rescanning the interior per dropped point.
        if (c_end > c_start + 1) {
          prefix_max.resize(c_end);
          prefix_max[c_start] = 0.0;
          for (std::size_t k = c_start + 1; k < c_end; ++k) {
            prefix_max[k] = std::max(prefix_max[k - 1], r[k]);
          }
          while (c_end > c_start + 1) {
            const double internal_max = prefix_max[c_end - 1];
            const bool tail_is_steep_rise =
                !std::isfinite(r[c_end]) ||
                r[c_end] * xi_complement > internal_max;
            if (!tail_is_steep_rise) break;
            --c_end;
          }
        }
        if (c_end < c_start || c_end - c_start + 1 < min_cluster_size) continue;
        if (c_start > sda.end) continue;
        if (c_end < u_start) continue;
        u_clusters.emplace_back(c_start, c_end);
      }
      // Innermost first: newer steep-down areas start later.
      std::reverse(u_clusters.begin(), u_clusters.end());
      clusters.insert(clusters.end(), u_clusters.begin(), u_clusters.end());
    } else {
      ++index;
    }
  }
  return clusters;
}

void reextract_xi(OpticsResult& base, std::size_t min_pts, double xi) {
  require(min_pts >= 2, "reextract_xi: min_pts must be >= 2");
  base.clusters = extract_xi_clusters(base.reachability, min_pts, xi, min_pts);

  // Flat labels, innermost-first. A cluster claims the points inside it that
  // no smaller cluster has taken -- but only when those are the majority of
  // its extent. The majority rule keeps the hierarchy honest: a rack-level
  // cluster with one tiny sub-fragment still becomes a cluster (fragment
  // excluded), while an enclosing facility- or ISP-level cluster whose
  // children are already labeled does not swallow the stragglers between
  // them.
  const std::size_t n = base.ordering.size();
  base.labels.assign(n, -1);
  std::vector<int> position_labels(n, -1);
  int next_label = 0;
  for (const auto& [start, end] : base.clusters) {
    std::size_t unlabeled = 0;
    for (std::size_t k = start; k <= end; ++k) {
      if (position_labels[k] == -1) ++unlabeled;
    }
    const std::size_t extent = end - start + 1;
    if (unlabeled < min_pts || 2 * unlabeled < extent) continue;
    for (std::size_t k = start; k <= end; ++k) {
      if (position_labels[k] == -1) position_labels[k] = next_label;
    }
    ++next_label;
  }
  for (std::size_t k = 0; k < n; ++k) {
    base.labels[base.ordering[k]] = position_labels[k];
  }
  base.cluster_count = next_label;
}

OpticsResult optics_xi(const DistanceMatrix& distances, std::size_t min_pts,
                       double xi) {
  require(min_pts >= 2, "optics_xi: min_pts must be >= 2");
  OpticsResult result;
  optics_order(distances, min_pts, result);
  reextract_xi(result, min_pts, xi);
  return result;
}

}  // namespace repro
