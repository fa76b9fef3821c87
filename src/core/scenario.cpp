#include "core/scenario.h"

#include "store/serde.h"

namespace repro {

namespace {

/// Couples the pieces that must agree with the topology scale.
Scenario with_scale(GeneratorConfig topology, std::size_t vantage_points,
                    std::size_t min_usable_sites) {
  Scenario scenario;
  scenario.topology = topology;
  scenario.deployment.footprint_scale = topology.scale;
  scenario.vantage_points = vantage_points;
  scenario.filter.min_usable_sites = min_usable_sites;
  return scenario;
}

}  // namespace

std::string_view to_string(Scale scale) noexcept {
  switch (scale) {
    case Scale::kTiny: return "tiny";
    case Scale::kSmall: return "small";
    case Scale::kPaper: return "paper";
    case Scale::k10x: return "10x";
  }
  return "tiny";
}

std::optional<Scale> parse_scale(std::string_view name) noexcept {
  if (name == "tiny") return Scale::kTiny;
  if (name == "small") return Scale::kSmall;
  if (name == "paper") return Scale::kPaper;
  if (name == "10x") return Scale::k10x;
  return std::nullopt;
}

Scenario Scenario::tiny() {
  Scenario scenario = with_scale(GeneratorConfig::tiny(), 40, 25);
  scenario.scale = Scale::kTiny;
  scenario.population.background_per_isp = 1;
  scenario.population.onnet_servers_per_hg = 20;
  scenario.population.decoy_count = 10;
  scenario.peering.vm_count = 4;
  scenario.peering.slash24s_per_target = 2;
  return scenario;
}

Scenario Scenario::small() {
  Scenario scenario = with_scale(GeneratorConfig::small(), 80, 50);
  scenario.scale = Scale::kSmall;
  scenario.peering.vm_count = 6;
  return scenario;
}

Scenario Scenario::paper() {
  Scenario scenario = with_scale(GeneratorConfig::paper(), 163, 100);
  scenario.scale = Scale::kPaper;
  // At paper scale the per-ISP matrices stop fitting comfortably in RAM all
  // at once; stream them through mmap spill files (bit-identical, so the
  // digest -- and every shared artifact -- is unchanged).
  scenario.stream_matrices = true;
  scenario.stream_block_rows = 512;
  return scenario;
}

Scenario Scenario::tenx() {
  Scenario scenario = with_scale(GeneratorConfig::tenx(), 163, 100);
  scenario.scale = Scale::k10x;
  scenario.stream_matrices = true;
  scenario.stream_block_rows = 512;
  return scenario;
}

Scenario Scenario::at_scale(Scale scale) {
  switch (scale) {
    case Scale::kTiny: return tiny();
    case Scale::kSmall: return small();
    case Scale::kPaper: return paper();
    case Scale::k10x: return tenx();
  }
  return tiny();
}

std::uint64_t measurement_digest(const Scenario& scenario) {
  // Field-order matters: append-only, and bump the artifact schema versions
  // in store/serde.h when an encoding (not just a key input) changes.
  store::Fnv1a h;
  const GeneratorConfig& topo = scenario.topology;
  h.mix("topology")
      .mix(topo.seed)
      .mix(topo.scale)
      .mix(topo.access_per_million_users)
      .mix(topo.max_access_per_country)
      .mix(topo.tier1_count)
      .mix(topo.ixp_metro_users_m)
      .mix(topo.users_per_slash24)
      .mix(topo.ixp_join_access)
      .mix(topo.ixp_join_transit)
      .mix(topo.ixp_join_tier1)
      .mix(topo.hg_ixp_peer_probability)
      .mix(topo.hg_pni_giant_isp)
      .mix(topo.hg_pni_large_isp)
      .mix(topo.hg_pni_medium_isp)
      .mix(topo.hg_pni_small_isp);
  const DeploymentConfig& deploy = scenario.deployment;
  h.mix("deployment")
      .mix(deploy.seed)
      .mix(deploy.footprint_scale)
      .mix(deploy.colocate_all_probability)
      .mix(deploy.akamai_legacy_probability)
      .mix(deploy.server_count_multiplier)
      .mix(deploy.same_rack_probability);
  const PopulationConfig& population = scenario.population;
  h.mix("population")
      .mix(population.seed)
      .mix(population.background_per_isp)
      .mix(population.onnet_servers_per_hg)
      .mix(population.decoy_count);
  const ScannerConfig& scanner = scenario.scanner;
  h.mix("scanner").mix(scanner.seed).mix(scanner.miss_rate);
  const PingConfig& ping = scenario.ping;
  h.mix("ping")
      .mix(ping.seed)
      .mix(ping.probes)
      .mix(ping.inflation_min)
      .mix(ping.inflation_max)
      .mix(ping.facility_offset_mean_ms)
      .mix(ping.rack_offset_mean_ms)
      .mix(ping.per_ip_offset_ms)
      .mix(ping.jitter_mean_ms)
      .mix(ping.probe_loss)
      .mix(ping.unresponsive_ip_rate)
      .mix(ping.split_personality_rate)
      .mix(ping.icmp_limited_isp_rate)
      .mix(ping.icmp_limited_failure)
      .mix(ping.fault_seed)
      .mix(ping.vp_outage_rate)
      .mix(ping.icmp_storm_isp_rate)
      .mix(ping.icmp_storm_failure)
      .mix(ping.retry_budget);
  const FilterConfig& filter = scenario.filter;
  h.mix("filter")
      .mix(static_cast<std::uint64_t>(filter.min_usable_sites))
      .mix(static_cast<std::uint64_t>(filter.sol_check_candidates))
      .mix(filter.sol_tolerance_ms);
  h.mix("vantage")
      .mix(static_cast<std::uint64_t>(scenario.vantage_points))
      .mix(scenario.vantage_seed);
  return h.digest();
}

}  // namespace repro
