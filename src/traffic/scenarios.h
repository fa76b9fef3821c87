// The Section-4 studies, as reusable scenario drivers:
//   * CovidSurge   -- the lockdown surge arithmetic (offnets near capacity,
//                     excess spills to interdomain links);
//   * DiurnalStudy -- the 530-apartment observation: at peak, a larger share
//                     of the same services comes from distant servers;
//   * PniUtilization -- Section 4.2.2: PNI demand vs provisioned capacity;
//   * CascadeStudy -- Section 4.3: fail the facility hosting the most
//                     hypergiants and measure collateral damage on shared
//                     routes.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/spillover.h"

namespace repro {

// ---------------------------------------------------------------- Covid ---

struct CovidSurgeInput {
  /// Share of the hypergiant's traffic served by offnets before the surge
  /// (the study observed 63% for Netflix in some European ISPs).
  double offnet_share_before = 0.63;
  /// Offnet capacity headroom over pre-surge offnet traffic.
  double offnet_headroom = 1.2;
  /// Total demand multiplier during the surge (lockdown: +58%).
  double surge_multiplier = 1.58;
  /// Cache efficiency cap (fraction of traffic offnets *could* serve).
  double cache_efficiency = 0.95;
};

struct CovidSurgeResult {
  double offnet_before = 0.0;       // normalized to pre-surge demand = 1
  double interdomain_before = 0.0;
  double offnet_after = 0.0;
  double interdomain_after = 0.0;

  double offnet_increase_fraction() const noexcept;       // ~ +0.20
  double interdomain_multiplier() const noexcept;         // ~ 2.2x
};

/// Pure arithmetic model of the lockdown surge.
CovidSurgeResult covid_surge(const CovidSurgeInput& input);

// -------------------------------------------------------------- Diurnal ---

struct DiurnalPoint {
  double local_hour = 0.0;
  double total_demand = 0.0;     // Gbps across the apartment population
  double near_fraction = 0.0;    // served from in-ISP offnets ("nearby")
  double far_fraction = 0.0;     // served across interdomain ("distant")
};

struct DiurnalStudyConfig {
  std::uint64_t seed = 530530;
  int apartments = 530;
  double per_apartment_peak_mbps = 12.0;
  /// Offnet capacity as a multiple of the apartments' peak hypergiant load.
  double offnet_headroom = 0.85;  // < 1: offnets saturate at peak
  int hours = 24;
};

/// Simulates a day of apartment traffic against a capacity-limited offnet.
std::vector<DiurnalPoint> diurnal_study(const DiurnalStudyConfig& config);

// ------------------------------------------------------ PNI utilization ---

struct PniUtilizationStats {
  Hypergiant hg = Hypergiant::kGoogle;
  std::size_t isps_with_pni = 0;
  /// Mean of max(0, demand - capacity)/capacity over PNIs whose peak
  /// demand exceeds capacity (the paper: Google >= 13% on average).
  double mean_peak_exceedance = 0.0;
  /// Fraction of PNIs whose peak interdomain demand is >= 2x capacity
  /// (the paper: 10% of Meta PNIs).
  double fraction_demand_2x = 0.0;
  /// Fraction of PNIs with any peak exceedance at all.
  double fraction_exceeded = 0.0;
};

/// Evaluates every ISP with a PNI to `hg`: interdomain demand at local peak
/// (what remains after offnet serving) vs the PNI's provisioned capacity.
PniUtilizationStats pni_utilization(const Internet& internet,
                                    const DemandModel& demand,
                                    const CapacityModel& capacity,
                                    Hypergiant hg);

// -------------------------------------------------------------- Cascade ---

struct CascadeOutcome {
  AsIndex isp = kInvalidIndex;
  FacilityIndex failed_facility = kInvalidIndex;
  int hypergiants_in_facility = 0;

  /// Baseline (no failure) and failure-scenario shared-resource state.
  SpilloverResult baseline;
  SpilloverResult failure;

  /// Collateral damage: degradation of non-hypergiant traffic caused by
  /// the failure (failure minus baseline).
  double collateral_degradation() const noexcept;
};

/// Fails the facility hosting the most hypergiants at `isp` during its
/// local evening peak and compares against the no-failure baseline.
CascadeOutcome cascade_study(const Internet& internet,
                             const OffnetRegistry& registry,
                             const DemandModel& demand,
                             const CapacityModel& capacity, AsIndex isp);

}  // namespace repro
