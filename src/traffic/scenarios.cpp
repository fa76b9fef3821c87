#include "traffic/scenarios.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace repro {

// ---------------------------------------------------------------- Covid ---

double CovidSurgeResult::offnet_increase_fraction() const noexcept {
  return offnet_before > 0.0 ? offnet_after / offnet_before - 1.0 : 0.0;
}

double CovidSurgeResult::interdomain_multiplier() const noexcept {
  return interdomain_before > 0.0 ? interdomain_after / interdomain_before : 0.0;
}

CovidSurgeResult covid_surge(const CovidSurgeInput& input) {
  require(input.offnet_share_before > 0.0 && input.offnet_share_before <= 1.0,
          "covid_surge: bad offnet share");
  require(input.surge_multiplier >= 1.0, "covid_surge: surge must be >= 1");
  CovidSurgeResult result;
  // Normalize pre-surge demand to 1.
  result.offnet_before = input.offnet_share_before;
  result.interdomain_before = 1.0 - input.offnet_share_before;

  const double capacity = input.offnet_share_before * input.offnet_headroom;
  // What the offnets *would* serve after the surge if capacity allowed: the
  // pre-surge serving share scales with demand (the hit pattern is a
  // property of the catalog), bounded by the cache efficiency.
  const double cacheable =
      input.surge_multiplier *
      std::min(input.offnet_share_before, input.cache_efficiency);
  result.offnet_after = std::min(cacheable, capacity);
  result.interdomain_after = input.surge_multiplier - result.offnet_after;
  return result;
}

// -------------------------------------------------------------- Diurnal ---

std::vector<DiurnalPoint> diurnal_study(const DiurnalStudyConfig& config) {
  require(config.apartments > 0, "diurnal_study: need apartments");
  require(config.hours > 0, "diurnal_study: need hours");
  Rng rng(config.seed);

  // Per-apartment peak demand with household variation.
  std::vector<double> apartment_peak(static_cast<std::size_t>(config.apartments));
  for (auto& peak : apartment_peak) {
    peak = config.per_apartment_peak_mbps * rng.lognormal(0.0, 0.5);
  }
  double population_peak_mbps = 0.0;
  for (const double peak : apartment_peak) population_peak_mbps += peak;

  // The in-ISP offnets covering this population saturate below the
  // population's hypergiant peak (headroom < 1 by default).
  const double hg_share = total_hypergiant_share();
  const double offnet_capacity_mbps =
      population_peak_mbps * hg_share * config.offnet_headroom;

  std::vector<DiurnalPoint> out;
  out.reserve(static_cast<std::size_t>(config.hours));
  for (int hour = 0; hour < config.hours; ++hour) {
    DiurnalPoint point;
    point.local_hour = hour;
    const double multiplier = diurnal_multiplier(hour);
    const double total_mbps = population_peak_mbps * multiplier;
    point.total_demand = total_mbps / 1000.0;  // Gbps

    const double hg_demand = total_mbps * hg_share;
    const double near = std::min(hg_demand, offnet_capacity_mbps);
    const double far = total_mbps - near;  // spillover + non-HG traffic
    point.near_fraction = total_mbps > 0.0 ? near / total_mbps : 0.0;
    point.far_fraction = total_mbps > 0.0 ? far / total_mbps : 0.0;
    out.push_back(point);
  }
  return out;
}

// ------------------------------------------------------ PNI utilization ---

PniUtilizationStats pni_utilization(const Internet& internet,
                                    const DemandModel& demand,
                                    const CapacityModel& capacity,
                                    Hypergiant hg) {
  PniUtilizationStats stats;
  stats.hg = hg;
  double exceedance_sum = 0.0;
  std::size_t exceeded = 0;
  std::size_t twice = 0;

  for (const AsIndex isp : internet.access_isps()) {
    const InterdomainCapacity inter = capacity.interdomain_capacity(isp, hg);
    if (inter.pni_gbps <= 0.0) continue;
    ++stats.isps_with_pni;

    // Interdomain demand at local peak: what the offnet cannot absorb.
    const double peak = demand.hypergiant_peak_demand_gbps(isp, hg);
    const double offnet = std::min(peak * profile(hg).cache_efficiency,
                                   capacity.offnet_capacity_gbps(isp, hg));
    const double interdomain = peak - offnet;
    if (interdomain > inter.pni_gbps) {
      ++exceeded;
      exceedance_sum += (interdomain - inter.pni_gbps) / inter.pni_gbps;
      if (interdomain >= 2.0 * inter.pni_gbps) ++twice;
    }
  }
  if (exceeded > 0) {
    stats.mean_peak_exceedance = exceedance_sum / static_cast<double>(exceeded);
  }
  if (stats.isps_with_pni > 0) {
    stats.fraction_exceeded = static_cast<double>(exceeded) /
                              static_cast<double>(stats.isps_with_pni);
    stats.fraction_demand_2x =
        static_cast<double>(twice) / static_cast<double>(stats.isps_with_pni);
  }
  return stats;
}

// -------------------------------------------------------------- Cascade ---

double CascadeOutcome::collateral_degradation() const noexcept {
  return failure.other_traffic_degraded_fraction() -
         baseline.other_traffic_degraded_fraction();
}

CascadeOutcome cascade_study(const Internet& internet,
                             const OffnetRegistry& registry,
                             const DemandModel& demand,
                             const CapacityModel& capacity, AsIndex isp) {
  CascadeOutcome outcome;
  outcome.isp = isp;

  // The facility hosting the most hypergiants (ties: lowest index).
  const auto facility_map = registry.facility_map(isp);
  for (const auto& [facility, hosted] : facility_map) {
    if (static_cast<int>(hosted.size()) > outcome.hypergiants_in_facility) {
      outcome.hypergiants_in_facility = static_cast<int>(hosted.size());
      outcome.failed_facility = facility;
    }
  }

  const SpilloverSimulator simulator(internet, registry, demand, capacity);
  SpilloverScenario scenario;
  scenario.utc_hour = simulator.local_peak_utc_hour(isp);
  outcome.baseline = simulator.simulate(isp, scenario);
  if (outcome.failed_facility != kInvalidIndex) {
    scenario.failed_facilities.insert(outcome.failed_facility);
  }
  outcome.failure = simulator.simulate(isp, scenario);
  return outcome;
}

}  // namespace repro
