// Ablations for the design choices DESIGN.md calls out:
//   1. OPTICS steepness xi (the paper brackets with 0.1 / 0.9 -- how do the
//      colocation conclusions move across the whole range?)
//   2. The 20% discrepant-vantage-point trimming in the latency distance.
//   3. The number of vantage points (the paper has 163 M-Lab sites).
//   4. Router unresponsiveness vs the peering study's confirmed/possible split.
//   5. Offnet headroom vs lockdown-style surge spillover.
//
// Runs at "small" scale by default (override with REPRO_SCALE) because each
// sweep point re-runs a pipeline stage.
#include <cstdio>
#include <map>
#include <set>

#include "bench_common.h"
#include "route/peering_inference.h"
#include "traffic/scenarios.h"
#include "util/strings.h"
#include "util/table.h"

namespace repro::bench {
namespace {

Scenario ablation_scenario() {
  const char* scale = std::getenv("REPRO_SCALE");
  if (scale == nullptr) return Scenario::small();
  return scenario_from_env();
}

/// Fraction of ISPs fully colocated (all of any hypergiant's offnets in a
/// cluster with another hypergiant) and cluster/facility purity at one xi.
struct ClusterQuality {
  double full_colocation_google = 0.0;
  double facility_purity = 0.0;  // clusters whose IPs share one facility
  std::size_t usable_isps = 0;
};

/// Every k-th hosting ISP is clustered per sweep point; the sweeps compare
/// settings against each other, so consistent subsampling is free accuracy.
constexpr std::size_t kSweepStride = 3;

ClusterQuality evaluate_clustering(const Pipeline& pipeline,
                                   const ColocationClusterer& clusterer,
                                   double xi) {
  ClusterQuality quality;
  const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
  std::size_t google_hosts = 0;
  std::size_t google_full = 0;
  std::size_t clusters = 0;
  std::size_t pure = 0;
  std::size_t ordinal = 0;
  for (const AsIndex isp : pipeline.hosting_isps_2023()) {
    if (ordinal++ % kSweepStride != 0) continue;
    const double xis[] = {xi};
    const auto clustering = clusterer.cluster_isp_multi(isp, xis).front();
    if (!clustering.usable) continue;
    ++quality.usable_isps;
    const HgColocation colocation =
        colocation_of(clustering, registry, Hypergiant::kGoogle);
    if (colocation.total_ips > 0) {
      ++google_hosts;
      if (colocation.colocated_ips == colocation.total_ips) ++google_full;
    }
    std::map<int, std::set<FacilityIndex>> by_label;
    for (std::size_t i = 0; i < clustering.registry_indices.size(); ++i) {
      if (clustering.labels[i] < 0) continue;
      by_label[clustering.labels[i]].insert(
          registry.servers()[clustering.registry_indices[i]].facility);
    }
    for (const auto& [label, facilities] : by_label) {
      (void)label;
      ++clusters;
      if (facilities.size() == 1) ++pure;
    }
  }
  if (google_hosts > 0) {
    quality.full_colocation_google =
        static_cast<double>(google_full) / google_hosts;
  }
  if (clusters > 0) {
    quality.facility_purity = static_cast<double>(pure) / clusters;
  }
  return quality;
}

void sweep_xi(const Pipeline& pipeline) {
  std::printf("--- Ablation 1: OPTICS xi sweep ---\n");
  ColocationConfig config;
  config.filter = pipeline.scenario().filter;
  const ColocationClusterer clusterer(pipeline.registry(Snapshot::k2023),
                                      pipeline.ping_mesh(),
                                      pipeline.vantage_points(), config);
  TextTable table({"xi", "Google fully colocated", "facility purity", "ISPs"});
  for (const double xi : {0.05, 0.1, 0.5, 0.9}) {
    const ClusterQuality quality = evaluate_clustering(pipeline, clusterer, xi);
    table.add_row({format_fixed(xi, 2),
                   format_percent(quality.full_colocation_google),
                   format_percent(quality.facility_purity),
                   std::to_string(quality.usable_isps)});
  }
  std::printf("%s\n", table.render().c_str());
}

void sweep_trim(const Pipeline& pipeline) {
  std::printf("--- Ablation 2: distance trim fraction (paper uses 20%%) ---\n");
  TextTable table({"trim", "Google fully colocated", "facility purity"});
  for (const double trim : {0.0, 0.2, 0.4}) {
    ColocationConfig config;
    config.filter = pipeline.scenario().filter;
    config.trim_fraction = trim;
    const ColocationClusterer clusterer(pipeline.registry(Snapshot::k2023),
                                        pipeline.ping_mesh(),
                                        pipeline.vantage_points(), config);
    const ClusterQuality quality = evaluate_clustering(pipeline, clusterer, 0.1);
    table.add_row({format_fixed(trim, 1),
                   format_percent(quality.full_colocation_google),
                   format_percent(quality.facility_purity)});
  }
  std::printf("%s\n", table.render().c_str());
}

void sweep_vantage_points(const Scenario& base) {
  std::printf("--- Ablation 3: vantage-point count (paper: 163 M-Lab sites) ---\n");
  TextTable table({"VPs", "min sites filter", "Google fully colocated",
                   "facility purity", "usable ISPs"});
  for (const std::size_t count :
       {base.vantage_points, base.vantage_points / 2, base.vantage_points / 4}) {
    Scenario scenario = base;
    scenario.vantage_points = count;
    scenario.filter.min_usable_sites =
        std::max<std::size_t>(4, base.filter.min_usable_sites * count /
                                     base.vantage_points);
    Pipeline pipeline(scenario);
    ColocationConfig config;
    config.filter = scenario.filter;
    const ColocationClusterer clusterer(pipeline.registry(Snapshot::k2023),
                                        pipeline.ping_mesh(),
                                        pipeline.vantage_points(), config);
    const ClusterQuality quality = evaluate_clustering(pipeline, clusterer, 0.1);
    table.add_row({std::to_string(count),
                   std::to_string(scenario.filter.min_usable_sites),
                   format_percent(quality.full_colocation_google),
                   format_percent(quality.facility_purity),
                   std::to_string(quality.usable_isps)});
  }
  std::printf("%s\n", table.render().c_str());
}

void sweep_silent_routers(const Pipeline& pipeline) {
  std::printf(
      "--- Ablation 4: router unresponsiveness vs peering inference ---\n");
  const Internet& net = pipeline.internet();
  const AsIndex google = net.as_by_asn(kGoogleAsn);
  const IxpRegistry ixp_registry =
      IxpRegistry::build(net, pipeline.scenario().ixp);
  TextTable table({"silent router rate", "peer", "possible", "no evidence"});
  for (const double rate : {0.0, 0.18, 0.4, 0.7}) {
    TracerouteConfig trace_config = pipeline.scenario().traceroute;
    trace_config.silent_router_rate = rate;
    const TracerouteEngine engine(net, trace_config);
    const PeeringStudy study(net, engine, ixp_registry,
                             pipeline.scenario().peering);
    const DiscoveryReport& report =
        pipeline.discovery(Snapshot::k2023, Methodology::k2023);
    std::vector<AsIndex> targets;
    for (const auto& [isp, ips] :
         report.footprint(Hypergiant::kGoogle).by_isp) {
      (void)ips;
      targets.push_back(isp);
    }
    const auto evidence = study.run(google, targets, pipeline.routing());
    std::size_t peer = 0;
    std::size_t possible = 0;
    for (const auto& [isp, result] : evidence) {
      (void)isp;
      if (result.status == PeeringStatus::kPeer) ++peer;
      if (result.status == PeeringStatus::kPossiblePeer) ++possible;
    }
    const double denom = static_cast<double>(targets.size());
    table.add_row({format_fixed(rate, 2),
                   format_percent(peer / denom),
                   format_percent(possible / denom),
                   format_percent((denom - peer - possible) / denom)});
  }
  std::printf("%s\n", table.render().c_str());
}

void sweep_headroom() {
  std::printf("--- Ablation 5: offnet headroom vs surge spillover ---\n");
  TextTable table({"headroom", "offnet change", "interdomain multiplier"});
  for (const double headroom : {1.0, 1.2, 1.5, 2.0}) {
    CovidSurgeInput input;
    input.offnet_headroom = headroom;
    const CovidSurgeResult result = covid_surge(input);
    table.add_row({format_fixed(headroom, 1),
                   format_percent(result.offnet_increase_fraction()),
                   "x" + format_fixed(result.interdomain_multiplier(), 2)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace
}  // namespace repro::bench

int main() {
  using namespace repro;
  using namespace repro::bench;
  const Stopwatch watch;
  const Scenario scenario = ablation_scenario();
  print_header("Ablations -- sensitivity of the reproduction's conclusions",
               std::string(to_string(scenario.scale)));

  Pipeline pipeline(scenario);
  sweep_xi(pipeline);
  sweep_trim(pipeline);
  sweep_vantage_points(scenario);
  sweep_silent_routers(pipeline);
  sweep_headroom();
  print_footer("ablation_sweeps", watch, pipeline);
  return 0;
}
