#include "cluster/colocation.h"

#include <algorithm>
#include <cstdio>
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
  return cluster_isp_multi(isp, xis, mesh_.measure_isp(registry_, isp));
}

std::vector<IspClustering> ColocationClusterer::cluster_isp_multi(
    AsIndex isp, std::span<const double> xis, LatencyMatrix premeasured) const {
  const LatencyMatrix raw = std::move(premeasured);
  return cluster_rows(isp, xis, LatencyMatrixRows(raw), /*streamed=*/false, 0);
}

std::vector<IspClustering> ColocationClusterer::cluster_isp_multi(
    AsIndex isp, std::span<const double> xis, const LatencyRows& rows,
    std::size_t block_rows) const {
  return cluster_rows(isp, xis, rows, /*streamed=*/true, block_rows);
}

std::vector<IspClustering> ColocationClusterer::cluster_rows(
    AsIndex isp, std::span<const double> xis, const LatencyRows& rows,
    bool streamed, std::size_t block_rows) const {
  require(!xis.empty(), "cluster_isp_multi: need at least one xi");
  IspClustering base;
  base.isp = isp;

  bool done = rows.row_count() == 0;

  FilteredMatrix cleaned;
  if (!done) {
    {
      obs::ScopedTimer timer("cluster.clean_ms");
      cleaned = clean_matrix(rows, vps_, config_.filter,
                             /*materialize=*/!streamed);
    }
    base.dropped_unresponsive = cleaned.dropped_unresponsive;
    base.dropped_impossible = cleaned.dropped_impossible;
    base.usable_sites = cleaned.col_count();
    done = !cleaned.usable;
  }
  if (!done) {
    base.usable = true;
    base.registry_indices.reserve(cleaned.row_count());
    for (const std::size_t row : cleaned.kept_rows) {
      base.registry_indices.push_back(rows.server_index(row));
    }
  }

  std::vector<IspClustering> out;
  if (done || cleaned.row_count() == 1) {
    if (!done) base.labels.assign(1, -1);
    out.assign(xis.size(), base);
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
  out.reserve(xis.size());
  for (const double xi : xis) {
    require(xi > 0.0 && xi < 1.0, "cluster_isp_multi: xi outside (0, 1)");
    {
      obs::ScopedTimer timer("cluster.xi_extract_ms");
      reextract_xi(optics, config_.min_pts, xi);
    }
    IspClustering clustering = base;
    clustering.labels = optics.labels;
    clustering.cluster_count = optics.cluster_count;
    obs::metrics()
        .counter(xi_counter_name("cluster.clusters", xi))
        .add(static_cast<std::uint64_t>(std::max(0, optics.cluster_count)));
    out.push_back(std::move(clustering));
  }
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
