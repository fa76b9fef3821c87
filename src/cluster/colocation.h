// Per-ISP colocation clustering (Section 3.2): run the ping campaign through
// the Appendix-A filters, cluster the surviving offnet IPs with OPTICS, and
// derive the paper's colocation statistics.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/optics.h"
#include "hypergiant/deployment.h"
#include "mlab/filters.h"
#include "mlab/ping_mesh.h"

namespace repro {

/// Outcome of clustering one ISP at one xi setting.
struct IspClustering {
  AsIndex isp = kInvalidIndex;
  /// False when the ISP failed the >= min_usable_sites filter.
  bool usable = false;

  /// Per surviving offnet IP: its registry server index and cluster label
  /// (-1 = not assigned to any cluster, i.e. not colocated with anything).
  std::vector<std::size_t> registry_indices;
  std::vector<int> labels;
  int cluster_count = 0;

  std::size_t dropped_unresponsive = 0;
  std::size_t dropped_impossible = 0;
  std::size_t usable_sites = 0;
};

/// The xi-independent half of one ISP's clustering: every IspClustering
/// field except the labels, plus the OPTICS reachability plot that the
/// labels at any xi are extracted from (extract_at_xi).
struct IspPlot {
  AsIndex isp = kInvalidIndex;
  bool usable = false;
  std::vector<std::size_t> registry_indices;
  std::size_t dropped_unresponsive = 0;
  std::size_t dropped_impossible = 0;
  std::size_t usable_sites = 0;

  /// Positions into registry_indices in OPTICS output order, and the
  /// reachability of each ordered point. Same length as registry_indices
  /// (empty for an unusable ISP).
  std::vector<std::size_t> ordering;
  std::vector<double> reachability;
};

/// Colocation of one hypergiant's offnets within one ISP.
struct HgColocation {
  std::size_t total_ips = 0;      // surviving IPs of this hypergiant
  std::size_t colocated_ips = 0;  // in a cluster with another hypergiant's IP

  double fraction() const noexcept {
    return total_ips == 0 ? 0.0
                          : static_cast<double>(colocated_ips) /
                                static_cast<double>(total_ips);
  }
};

struct ColocationConfig {
  double xi = 0.1;
  std::size_t min_pts = 2;       // n_min of the paper's Appendix A
  double trim_fraction = 0.2;    // discrepant-VP trimming in the distance
  FilterConfig filter;
};

/// Runs the per-ISP clustering pipeline.
class ColocationClusterer {
 public:
  ColocationClusterer(const OffnetRegistry& registry, const PingMesh& mesh,
                      const VantagePointSet& vps, ColocationConfig config);

  /// Clusters one ISP's offnet IPs at the configured xi. Deterministic.
  IspClustering cluster_isp(AsIndex isp) const;

  /// Clusters one ISP at several xi values: one plot, then one extraction
  /// per xi. Much cheaper than calling cluster_isp per xi.
  std::vector<IspClustering> cluster_isp_multi(AsIndex isp,
                                               std::span<const double> xis) const;

  /// The ISP's xi-independent plot from an already-measured latency matrix
  /// (cleaning, the distance kernel and the OPTICS ordering).
  IspPlot plot(AsIndex isp, const LatencyMatrix& matrix) const;

  /// Streamed variant over a row view (typically a store::MappedLatencyMatrix
  /// spill): the cleaned compact matrix is never materialized; pairwise
  /// distances are computed block-by-block with `block_rows` staging rows
  /// per worker (0 = whole matrix in one block). Bit-identical to the
  /// in-memory overload -- same filters, same kernels, same canonical
  /// ordering (docs/SCALING.md).
  IspPlot plot(AsIndex isp, const LatencyRows& rows,
               std::size_t block_rows) const;

  const ColocationConfig& config() const noexcept { return config_; }

 private:
  /// Shared implementation of both plot overloads. `streamed` selects
  /// whether the compact matrix is materialized once (false) or compact
  /// rows are reconstructed on demand in block_rows-sized tiles (true).
  IspPlot plot_rows(AsIndex isp, const LatencyRows& rows, bool streamed,
                    std::size_t block_rows) const;

  const OffnetRegistry& registry_;
  const PingMesh& mesh_;
  const VantagePointSet& vps_;
  ColocationConfig config_;
};

/// Labels one ISP's plot at `xi` in (0, 1) with OPTICS xi extraction
/// (reextract_xi) and bumps the cluster.clusters.xi<xi> counter. Cheap:
/// linear in the plot, with no distance or ordering work.
IspClustering extract_at_xi(const IspPlot& plot, std::size_t min_pts,
                            double xi);

/// Colocation stats of `hg` inside a clustered ISP: an IP is colocated when
/// its cluster also contains an IP of a different hypergiant.
HgColocation colocation_of(const IspClustering& clustering,
                           const OffnetRegistry& registry, Hypergiant hg);

/// Number of inferred sites for `hg` in the ISP: distinct cluster labels
/// among its IPs, with each noise IP counting as its own site. Returns 0
/// when the hypergiant has no surviving IPs there.
int inferred_site_count(const IspClustering& clustering,
                        const OffnetRegistry& registry, Hypergiant hg);

/// Distinct hypergiants with at least one surviving IP in the clustering.
std::vector<Hypergiant> surviving_hypergiants(const IspClustering& clustering,
                                              const OffnetRegistry& registry);

}  // namespace repro
