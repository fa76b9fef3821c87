#include "cluster/colocation.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "obs/metrics.h"

namespace repro {

namespace {

/// Counter name for a per-xi statistic, e.g. "cluster.clusters.xi0.1".
std::string xi_counter_name(const char* prefix, double xi) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s.xi%g", prefix, xi);
  return buffer;
}

}  // namespace

ColocationClusterer::ColocationClusterer(const OffnetRegistry& registry,
                                         const PingMesh& mesh,
                                         const VantagePointSet& vps,
                                         ColocationConfig config)
    : registry_(registry), mesh_(mesh), vps_(vps), config_(std::move(config)) {
  require(config_.xi > 0.0 && config_.xi < 1.0,
          "ColocationConfig: xi outside (0, 1)");
}

IspClustering ColocationClusterer::cluster_isp(AsIndex isp) const {
  const double xi = config_.xi;
  return cluster_isp_multi(isp, std::span<const double>(&xi, 1)).front();
}

std::vector<IspClustering> ColocationClusterer::cluster_isp_multi(
    AsIndex isp, std::span<const double> xis) const {
  require(!xis.empty(), "cluster_isp_multi: need at least one xi");
  const IspPlot isp_plot = plot(isp, mesh_.measure_isp(registry_, isp));
  std::vector<IspClustering> out;
  out.reserve(xis.size());
  for (const double xi : xis) {
    out.push_back(extract_at_xi(isp_plot, config_.min_pts, xi));
  }
  return out;
}

IspPlot ColocationClusterer::plot(AsIndex isp,
                                  const LatencyMatrix& matrix) const {
  return plot_rows(isp, LatencyMatrixRows(matrix), /*streamed=*/false, 0);
}

IspPlot ColocationClusterer::plot(AsIndex isp, const LatencyRows& rows,
                                  std::size_t block_rows) const {
  return plot_rows(isp, rows, /*streamed=*/true, block_rows);
}

IspPlot ColocationClusterer::plot_rows(AsIndex isp, const LatencyRows& rows,
                                       bool streamed,
                                       std::size_t block_rows) const {
  IspPlot out;
  out.isp = isp;
  if (rows.row_count() == 0) return out;

  FilteredMatrix cleaned;
  {
    obs::ScopedTimer timer("cluster.clean_ms");
    cleaned = clean_matrix(rows, vps_, config_.filter,
                           /*materialize=*/!streamed);
  }
  out.dropped_unresponsive = cleaned.dropped_unresponsive;
  out.dropped_impossible = cleaned.dropped_impossible;
  out.usable_sites = cleaned.col_count();
  if (!cleaned.usable) return out;

  out.usable = true;
  out.registry_indices.reserve(cleaned.row_count());
  for (const std::size_t row : cleaned.kept_rows) {
    out.registry_indices.push_back(rows.server_index(row));
  }
  if (cleaned.row_count() == 1) {
    // A lone point: the plot OPTICS would draw, without the kernel.
    out.ordering = {0};
    out.reachability = {std::numeric_limits<double>::infinity()};
    return out;
  }

  const DistanceMatrix distances = [&] {
    obs::ScopedTimer timer("cluster.distance_ms");
    if (streamed) {
      return pairwise_distances_streamed(
          [&rows, &cleaned](std::size_t compact_row, double* out_row) {
            fill_compact_row(rows, cleaned, compact_row, out_row);
          },
          cleaned.row_count(), cleaned.col_count(), config_.trim_fraction,
          block_rows);
    }
    return pairwise_distances(cleaned.rtt, cleaned.row_count(),
                              cleaned.col_count(), config_.trim_fraction);
  }();
  OpticsResult optics;
  {
    obs::ScopedTimer timer("cluster.optics_order_ms");
    optics_order(distances, config_.min_pts, optics);
  }
  out.ordering = std::move(optics.ordering);
  out.reachability = std::move(optics.reachability);
  return out;
}

IspClustering extract_at_xi(const IspPlot& plot, std::size_t min_pts,
                            double xi) {
  require(xi > 0.0 && xi < 1.0, "extract_at_xi: xi outside (0, 1)");
  IspClustering out;
  out.isp = plot.isp;
  out.usable = plot.usable;
  out.registry_indices = plot.registry_indices;
  out.dropped_unresponsive = plot.dropped_unresponsive;
  out.dropped_impossible = plot.dropped_impossible;
  out.usable_sites = plot.usable_sites;
  if (plot.ordering.size() < 2) {
    // Nothing to cluster: an unusable ISP has no points, a lone point is
    // noise.
    out.labels.assign(plot.ordering.size(), -1);
  } else {
    obs::ScopedTimer timer("cluster.xi_extract_ms");
    OpticsResult optics;
    optics.ordering = plot.ordering;
    optics.reachability = plot.reachability;
    reextract_xi(optics, min_pts, xi);
    out.labels = std::move(optics.labels);
    out.cluster_count = optics.cluster_count;
  }
  obs::metrics()
      .counter(xi_counter_name("cluster.clusters", xi))
      .add(static_cast<std::uint64_t>(out.cluster_count));
  return out;
}

HgColocation colocation_of(const IspClustering& clustering,
                           const OffnetRegistry& registry, Hypergiant hg) {
  HgColocation out;
  if (!clustering.usable) return out;

  // Which hypergiants appear in each cluster.
  std::map<int, std::set<Hypergiant>> cluster_members;
  for (std::size_t i = 0; i < clustering.registry_indices.size(); ++i) {
    const int label = clustering.labels[i];
    if (label < 0) continue;
    cluster_members[label].insert(
        registry.servers()[clustering.registry_indices[i]].hg);
  }

  for (std::size_t i = 0; i < clustering.registry_indices.size(); ++i) {
    const OffnetServer& server =
        registry.servers()[clustering.registry_indices[i]];
    if (server.hg != hg) continue;
    ++out.total_ips;
    const int label = clustering.labels[i];
    if (label < 0) continue;
    const auto& members = cluster_members[label];
    if (members.size() > 1) ++out.colocated_ips;
  }
  return out;
}

int inferred_site_count(const IspClustering& clustering,
                        const OffnetRegistry& registry, Hypergiant hg) {
  if (!clustering.usable) return 0;
  std::set<int> cluster_labels;
  int noise = 0;
  bool any = false;
  for (std::size_t i = 0; i < clustering.registry_indices.size(); ++i) {
    const OffnetServer& server =
        registry.servers()[clustering.registry_indices[i]];
    if (server.hg != hg) continue;
    any = true;
    if (clustering.labels[i] < 0) ++noise;
    else cluster_labels.insert(clustering.labels[i]);
  }
  if (!any) return 0;
  return static_cast<int>(cluster_labels.size()) + noise;
}

std::vector<Hypergiant> surviving_hypergiants(const IspClustering& clustering,
                                              const OffnetRegistry& registry) {
  std::set<Hypergiant> seen;
  for (const std::size_t ri : clustering.registry_indices) {
    seen.insert(registry.servers()[ri].hg);
  }
  std::vector<Hypergiant> out;
  for (const Hypergiant hg : all_hypergiants()) {
    if (seen.contains(hg)) out.push_back(hg);
  }
  return out;
}

}  // namespace repro
