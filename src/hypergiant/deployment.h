// Ground-truth offnet deployment.
//
// The DeploymentPolicy decides which ISPs host which hypergiants' offnets at
// each snapshot (calibrated against the paper's Table 1 footprints), places
// servers into facilities and racks (the colocation behaviour Section 3
// measures), and numbers them out of the host ISP's address space (which is
// why a TLS scan sees hypergiant certificates inside ISP ASes).
//
// Everything downstream -- the scanner, the ping mesh, the clustering -- must
// *rediscover* this ground truth; tests compare inferences against it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hypergiant/profile.h"
#include "topology/internet.h"
#include "util/rng.h"

namespace repro {

/// One deployed offnet server (ground truth).
struct OffnetServer {
  Ipv4 ip;
  Hypergiant hg = Hypergiant::kGoogle;
  AsIndex isp = kInvalidIndex;
  FacilityIndex facility = kInvalidIndex;
  int site_ordinal = 0;  // which site of the deployment this server is in
  int rack = 0;          // rack id within the facility
};

/// One (ISP, hypergiant) deployment: its sites and its servers.
struct Deployment {
  Hypergiant hg = Hypergiant::kGoogle;
  AsIndex isp = kInvalidIndex;
  std::vector<FacilityIndex> sites;
  std::vector<std::size_t> server_indices;  // into OffnetRegistry::servers()
};

/// Ground-truth registry for one snapshot.
class OffnetRegistry {
 public:
  void add_deployment(Deployment deployment);
  std::size_t add_server(OffnetServer server);

  const std::vector<OffnetServer>& servers() const noexcept { return servers_; }
  const std::map<std::pair<AsIndex, Hypergiant>, Deployment>& deployments()
      const noexcept {
    return deployments_;
  }

  /// Deployment of `hg` at `isp`, if any.
  const Deployment* find_deployment(AsIndex isp, Hypergiant hg) const noexcept;

  /// Hypergiants hosted by an ISP (canonical order).
  std::vector<Hypergiant> hypergiants_at(AsIndex isp) const;

  /// ISPs hosting at least one offnet.
  std::vector<AsIndex> hosting_isps() const;

  /// ISPs hosting `hg`.
  std::vector<AsIndex> isps_hosting(Hypergiant hg) const;

  /// Servers deployed in `isp` (indices into servers()).
  std::vector<std::size_t> servers_at(AsIndex isp) const;

  /// Ground-truth facility -> hosted hypergiants, within one ISP.
  std::map<FacilityIndex, std::vector<Hypergiant>> facility_map(AsIndex isp) const;

  std::size_t server_count() const noexcept { return servers_.size(); }

 private:
  std::vector<OffnetServer> servers_;
  std::map<std::pair<AsIndex, Hypergiant>, Deployment> deployments_;
};

struct DeploymentConfig {
  std::uint64_t seed = 99;

  /// Scales the Table-1 footprint targets (set equal to the topology
  /// generator's `scale` so a small world gets a proportional footprint).
  double footprint_scale = 1.0;

  /// Probability that an ISP hosting several hypergiants puts them all in
  /// its preferred facility (drives Table 2's 100%-colocated bucket; the
  /// paper measures 81-95% of multi-HG ISPs colocating at least some).
  double colocate_all_probability = 0.80;

  /// Probability that an Akamai deployment predates current practice and
  /// sits in the ISP's own legacy POP instead (Akamai's buckets in Table 2
  /// are shifted towards partial colocation).
  double akamai_legacy_probability = 0.45;

  /// Global multiplier on servers per deployment (calibrates the ~261K
  /// offnet IP total).
  double server_count_multiplier = 1.12;

  /// Probability that a colocated deployment lands in the same rack as the
  /// ISP's other offnets ("super common", per the operator anecdote).
  double same_rack_probability = 0.85;
};

/// Plans deployments for a snapshot. Deterministic in (internet, config).
/// The 2023 footprint is a superset of 2021 for Google/Netflix/Meta and
/// identical for Akamai, matching Table 1.
class DeploymentPolicy {
 public:
  DeploymentPolicy(const Internet& internet, DeploymentConfig config);

  /// Ground truth at a Table-1 snapshot: deploy_for_year of its year.
  OffnetRegistry deploy(Snapshot snapshot) const;

  // --- longitudinal extension (the 2021 foundation paper tracked offnet
  // footprints over seven years; the growth model anchors on the Table-1
  // snapshots and extrapolates a constant per-hypergiant annual rate) ---

  /// Footprint target for any year (Akamai is flat; the others grow at the
  /// rate implied by their 2021 -> 2023 change).
  int target_isps_for_year(Hypergiant hg, int year) const;

  /// Adoption-ordered hosts for a year; monotone in `year`.
  std::vector<AsIndex> footprint_for_year(Hypergiant hg, int year) const;

  /// Ground truth for any year.
  OffnetRegistry deploy_for_year(int year) const;

 private:
  const Internet& internet_;
  DeploymentConfig config_;
  std::vector<AsIndex> eligible_sorted(Hypergiant hg) const;
};

}  // namespace repro
