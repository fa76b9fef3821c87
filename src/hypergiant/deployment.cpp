#include "hypergiant/deployment.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/error.h"

namespace repro {

namespace {

/// Stable per-(seed, isp, hg, salt) generator.
Rng keyed_rng(std::uint64_t seed, AsIndex isp, Hypergiant hg, std::uint64_t salt) {
  return Rng(mix64(seed ^ mix64(isp * 1000003ULL + static_cast<std::uint64_t>(hg) +
                                (salt << 48))));
}

/// Offnet server addresses come from the host ISP's infra block, above the
/// range reserved for router interfaces.
constexpr std::uint64_t kInfraRouterReserve = 256;

}  // namespace

void OffnetRegistry::add_deployment(Deployment deployment) {
  const auto key = std::make_pair(deployment.isp, deployment.hg);
  require(!deployments_.contains(key), "OffnetRegistry: duplicate deployment");
  deployments_.emplace(key, std::move(deployment));
}

std::size_t OffnetRegistry::add_server(OffnetServer server) {
  const auto key = std::make_pair(server.isp, server.hg);
  const auto it = deployments_.find(key);
  require(it != deployments_.end(),
          "OffnetRegistry: server for unknown deployment");
  servers_.push_back(server);
  it->second.server_indices.push_back(servers_.size() - 1);
  return servers_.size() - 1;
}

const Deployment* OffnetRegistry::find_deployment(AsIndex isp,
                                                  Hypergiant hg) const noexcept {
  const auto it = deployments_.find(std::make_pair(isp, hg));
  return it == deployments_.end() ? nullptr : &it->second;
}

std::vector<Hypergiant> OffnetRegistry::hypergiants_at(AsIndex isp) const {
  std::vector<Hypergiant> out;
  for (const Hypergiant hg : all_hypergiants()) {
    if (find_deployment(isp, hg) != nullptr) out.push_back(hg);
  }
  return out;
}

std::vector<AsIndex> OffnetRegistry::hosting_isps() const {
  std::vector<AsIndex> out;
  for (const auto& [key, deployment] : deployments_) {
    (void)deployment;
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  }
  // deployments_ is ordered by (isp, hg), so `out` is sorted and unique.
  return out;
}

std::vector<AsIndex> OffnetRegistry::isps_hosting(Hypergiant hg) const {
  std::vector<AsIndex> out;
  for (const auto& [key, deployment] : deployments_) {
    (void)deployment;
    if (key.second == hg) out.push_back(key.first);
  }
  return out;
}

std::vector<std::size_t> OffnetRegistry::servers_at(AsIndex isp) const {
  std::vector<std::size_t> out;
  for (const Hypergiant hg : all_hypergiants()) {
    if (const Deployment* d = find_deployment(isp, hg)) {
      out.insert(out.end(), d->server_indices.begin(), d->server_indices.end());
    }
  }
  return out;
}

std::map<FacilityIndex, std::vector<Hypergiant>> OffnetRegistry::facility_map(
    AsIndex isp) const {
  std::map<FacilityIndex, std::vector<Hypergiant>> out;
  for (const std::size_t si : servers_at(isp)) {
    const OffnetServer& server = servers_[si];
    auto& hosted = out[server.facility];
    if (std::find(hosted.begin(), hosted.end(), server.hg) == hosted.end()) {
      hosted.push_back(server.hg);
    }
  }
  return out;
}

DeploymentPolicy::DeploymentPolicy(const Internet& internet, DeploymentConfig config)
    : internet_(internet), config_(std::move(config)) {
  require(config_.footprint_scale > 0.0,
          "DeploymentConfig: footprint_scale must be positive");
}

std::vector<AsIndex> DeploymentPolicy::eligible_sorted(Hypergiant hg) const {
  const auto& prof = profile(hg);
  struct Scored {
    AsIndex isp;
    double score;
  };
  std::vector<Scored> scored;
  for (const AsIndex isp : internet_.access_isps()) {
    const double users = internet_.ases[isp].users;
    if (users < prof.min_isp_users * config_.footprint_scale) continue;
    // Adoption score: bigger ISPs adopt earlier, with idiosyncratic noise.
    // Akamai's footprint is decades old and much more idiosyncratic (many
    // legacy relationships with mid-size ISPs), hence the wider noise -- it
    // is what produces ISPs hosting *only* Akamai (16% in the paper).
    Rng rng = keyed_rng(config_.seed, isp, hg, /*salt=*/1);
    const double sigma = hg == Hypergiant::kAkamai ? 2.2 : 0.8;
    const double score = std::pow(users, 0.85) * rng.lognormal(0.0, sigma);
    scored.push_back({isp, score});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.isp < b.isp;
  });
  std::vector<AsIndex> out;
  out.reserve(scored.size());
  for (const auto& s : scored) out.push_back(s.isp);
  return out;
}

int DeploymentPolicy::target_isps_for_year(Hypergiant hg, int year) const {
  const auto& prof = profile(hg);
  // Annual growth implied by the two Table-1 anchors; Akamai is flat.
  const double ratio =
      static_cast<double>(prof.isps_2023) / static_cast<double>(prof.isps_2021);
  const double annual = std::sqrt(ratio);
  const double target =
      prof.isps_2021 * std::pow(annual, static_cast<double>(year - 2021));
  return std::max(1, static_cast<int>(std::lround(
                         target * config_.footprint_scale)));
}

std::vector<AsIndex> DeploymentPolicy::footprint_for_year(Hypergiant hg,
                                                          int year) const {
  auto ranked = eligible_sorted(hg);
  const auto target = static_cast<std::size_t>(target_isps_for_year(hg, year));
  if (ranked.size() > target) ranked.resize(target);
  return ranked;
}

OffnetRegistry DeploymentPolicy::deploy(Snapshot snapshot) const {
  return deploy_for_year(snapshot_year(snapshot));
}

OffnetRegistry DeploymentPolicy::deploy_for_year(int year) const {
  OffnetRegistry registry;
  // Per-ISP cursor into the infra block, shared by all hypergiants hosted
  // there so server addresses never collide.
  std::unordered_map<AsIndex, std::uint64_t> cursor;

  for (const Hypergiant hg : all_hypergiants()) {
    const auto& prof = profile(hg);
    for (const AsIndex isp : footprint_for_year(hg, year)) {
      const As& as = internet_.ases[isp];
      Rng rng = keyed_rng(config_.seed, isp, hg, /*salt=*/2);
      // ISP-level style is keyed only by the ISP so all its deployments
      // agree on whether they colocate.
      Rng isp_rng = keyed_rng(config_.seed, isp, Hypergiant::kGoogle, /*salt=*/3);
      const bool colocate_all = isp_rng.chance(config_.colocate_all_probability);
      const int preferred_rack = static_cast<int>(isp_rng.uniform_int(0, 39));

      Deployment deployment;
      deployment.hg = hg;
      deployment.isp = isp;

      // --- choose sites ---
      const auto primary_options =
          internet_.hosting_options(isp, as.primary_metro);
      require(!primary_options.empty(), "deploy: ISP has no hosting options");
      FacilityIndex primary_site;
      const bool akamai_legacy =
          hg == Hypergiant::kAkamai && rng.chance(config_.akamai_legacy_probability);
      if (akamai_legacy && !as.facilities.empty()) {
        primary_site = as.facilities.front();  // the ISP's own legacy POP
      } else if (colocate_all) {
        primary_site = primary_options.front();  // the metro's main colo
      } else {
        primary_site = primary_options[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(primary_options.size()) - 1))];
      }
      deployment.sites.push_back(primary_site);

      // Additional sites. Two flavors, both governed by the hypergiant's
      // multi-site propensity: a second facility in the same metro (common
      // for Google-style multi-node deployments) and sites in the ISP's
      // other metros of presence.
      if (primary_options.size() > 1 &&
          rng.chance(prof.extra_site_propensity * 0.6)) {
        for (const FacilityIndex option : primary_options) {
          if (option != primary_site) {
            deployment.sites.push_back(option);
            break;
          }
        }
      }
      if (as.metros.size() > 1 && rng.chance(prof.extra_site_propensity)) {
        for (std::size_t m = 1; m < as.metros.size() && deployment.sites.size() < 4;
             ++m) {
          if (m > 1 && !rng.chance(0.4)) break;
          const auto options = internet_.hosting_options(isp, as.metros[m]);
          if (options.empty()) continue;
          deployment.sites.push_back(options.front());
        }
      }

      registry.add_deployment(deployment);

      // --- place servers ---
      const double size_factor = std::pow(as.users / 5e5, 0.7);
      for (std::size_t site = 0; site < deployment.sites.size(); ++site) {
        const double site_share = site == 0 ? 1.0 : 0.5;
        const int servers = std::clamp(
            static_cast<int>(std::lround(prof.servers_scale * size_factor *
                                         site_share *
                                         config_.server_count_multiplier *
                                         rng.lognormal(0.0, 0.35))),
            2, 400);
        const bool same_rack = rng.chance(config_.same_rack_probability);
        const int rack_base =
            same_rack ? preferred_rack : static_cast<int>(rng.uniform_int(0, 39));
        // Some deployments straddle two racks even when small (a second
        // shelf / power zone); this is what populates the paper's partial-
        // colocation buckets at the conservative xi.
        const bool rack_split = servers >= 4 && rng.chance(0.3);
        for (int i = 0; i < servers; ++i) {
          OffnetServer server;
          auto& offset = cursor[isp];
          const std::uint64_t address_index = kInfraRouterReserve + offset++;
          require(address_index < as.infra.pool().size(),
                  "deploy: ISP infra block exhausted");
          server.ip = as.infra.pool().at(address_index);
          server.hg = hg;
          server.isp = isp;
          server.facility = deployment.sites[site];
          server.site_ordinal = static_cast<int>(site);
          server.rack = rack_base + (i / 40) + (rack_split ? i % 2 : 0);
          registry.add_server(server);
        }
      }
    }
  }
  return registry;
}

}  // namespace repro
