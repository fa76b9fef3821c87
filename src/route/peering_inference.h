// The Section 4.2.1 peering study: issue traceroutes from VMs inside a
// hypergiant's network towards addresses in target ISPs, map hops to
// networks with BGP (IP-to-AS) and IXP databases, and infer peering when a
// hypergiant hop is directly followed by a hop mapped to the ISP.
// Unresponsive hops between the two yield only "possible peering".
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "route/ixp_registry.h"
#include "route/traceroute.h"

namespace repro {

enum class PeeringStatus : std::uint8_t {
  kPeer = 0,       // direct hypergiant -> ISP adjacency observed
  kPossiblePeer,   // only unresponsive hops separate hypergiant and ISP
  kNoEvidence,     // another network appears in between (or nothing maps)
};

std::string_view to_string(PeeringStatus status) noexcept;

/// Aggregated evidence for one target ISP.
struct IspPeeringEvidence {
  AsIndex isp = kInvalidIndex;
  PeeringStatus status = PeeringStatus::kNoEvidence;
  bool seen_via_ixp = false;  // >= 1 adjacency crossed an IXP peering LAN
  bool seen_via_pni = false;  // >= 1 adjacency on a non-IXP address
  std::size_t traceroutes = 0;
  /// Probes towards the same destination observed disagreeing paths (path
  /// signature instability, e.g. a BGP flap mid-study). A kPeer verdict for
  /// an unstable target is downgraded to kPossiblePeer: the adjacency may
  /// have been a transient detour, not a standing interconnect.
  bool unstable = false;
};

/// What the study observed about its own data quality, for StageHealth.
struct PeeringStudyOutcome {
  std::size_t targets = 0;
  std::size_t probes = 0;
  std::size_t unstable_targets = 0;
  std::size_t downgraded_peers = 0;  // kPeer verdicts demoted by instability
};

struct PeeringStudyConfig {
  std::uint64_t seed = 20230800;
  /// Distinct vantage VMs inside the hypergiant (the paper uses 112 Google
  /// Cloud regions); each probes with a different flow id, so it can enter
  /// the target via different router interfaces.
  std::size_t vm_count = 8;
  /// Destination /24s probed per target ISP (the paper probes every
  /// announced /24; a handful per ISP gives the same AS-level evidence).
  std::size_t slash24s_per_target = 3;
};

/// Runs the study for one hypergiant over target ASes.
class PeeringStudy {
 public:
  PeeringStudy(const Internet& internet, const TracerouteEngine& engine,
               const IxpRegistry& ixp_registry, PeeringStudyConfig config);

  /// Classifies a single traceroute with respect to hypergiant AS `hg_as`
  /// and target ISP `target`. Uses only public data (IP-to-AS longest
  /// prefix match + IXP databases), never ground-truth link information.
  IspPeeringEvidence classify_traceroute(const Traceroute& traceroute,
                                         AsIndex hg_as, AsIndex target) const;

  /// Full study: traceroutes from `hg_as` to every target, aggregated.
  /// Probes are issued on a campaign timeline (probe_time ticks once per
  /// traceroute) so routing faults that evolve during the study surface as
  /// per-destination path disagreement; stable paths are unaffected.
  /// Targets fan out over the thread pool; each starts at its prefix-sum
  /// offset on the timeline, so the result is bit-identical to one serial
  /// campaign for every thread count (docs/PARALLELISM.md).
  std::map<AsIndex, IspPeeringEvidence> run(
      AsIndex hg_as, std::span<const AsIndex> targets,
      const RoutingEngine& routing,
      PeeringStudyOutcome* outcome = nullptr) const;

  /// The addresses the study probes in `target`: one per announced /24,
  /// round-robin over its user prefixes, capped at slash24s_per_target.
  std::vector<Ipv4> destinations_of(AsIndex target) const;

  const PeeringStudyConfig& config() const noexcept { return config_; }

 private:
  /// All vm_count x |destinations| traceroutes towards one target, on the
  /// campaign clock from `clock_offset`, aggregated before the instability
  /// downgrade (which run() applies when it merges).
  IspPeeringEvidence probe_target(AsIndex hg_as, AsIndex target,
                                  std::span<const Ipv4> destinations,
                                  const RoutingEngine& routing,
                                  std::uint64_t clock_offset) const;

  const Internet& internet_;
  const TracerouteEngine& engine_;
  const IxpRegistry& ixp_registry_;
  PeeringStudyConfig config_;
};

}  // namespace repro
