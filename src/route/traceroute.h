// IP-level traceroute simulation over AS-level BGP routes.
//
// A probe walks the routing table's forwarding graph one AS at a time,
// with a TTL of 32 AS hops. Each AS it enters contributes 1-3 router hops
// numbered from its infra block. Interdomain handoffs are visible the way
// they are on the real Internet: a private interconnect shows the
// neighbor's router address, while an IXP crossing shows the neighbor's
// port address on the IXP peering LAN -- which is exactly what the
// Euro-IX/PeeringDB mapping keys on. Routers may be persistently unresponsive ('*' hops), and whole ASes
// may filter traceroute. Under BGP-flap faults a flap-down AS forwards via
// its alternate route or blackholes the probe; the flap branch compares a
// per-AS hash against flap_rate, so at a zero rate it never fires and every
// probe follows the best path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "route/bgp.h"
#include "util/rng.h"

namespace repro {

/// One traceroute hop. `ip` is empty for an unresponsive hop ('*').
/// `true_owner` is ground truth for tests; inference code must not use it.
struct TracerouteHop {
  std::optional<Ipv4> ip;
  AsIndex true_owner = kInvalidIndex;
};

struct Traceroute {
  AsIndex src = kInvalidIndex;
  Ipv4 destination;
  bool destination_reached = false;
  std::vector<TracerouteHop> hops;
  /// Ground truth for tests: this probe crossed a flap detour / was cut by
  /// a flap blackhole or transient loop. Inference code must not use these.
  bool flap_detoured = false;
  bool flap_truncated = false;
};

struct TracerouteConfig {
  std::uint64_t seed = 31337;
  /// Probability that an individual router never answers TTL-exceeded.
  double silent_router_rate = 0.18;
  /// Probability that an AS filters traceroute entirely (all hops silent).
  double silent_as_rate = 0.06;
  /// Probability the destination host answers the final probe.
  double destination_responds = 0.85;

  // BGP flap faults (FaultPlan::route, folded in by apply_route_faults).
  // At zero flap_rate no AS is flap-prone and these knobs change no hop.
  /// Seed for the flap hash stream, independent of the ECMP/silence seeds.
  std::uint64_t fault_seed = 0;
  /// Per-AS probability of being flap-prone for the whole campaign.
  double flap_rate = 0.0;
  /// Probes per flap epoch: a flap-prone AS withdraws its best route on
  /// (deterministically) half of the epochs.
  std::uint64_t flap_period = 4;
};

class TracerouteEngine {
 public:
  TracerouteEngine(const Internet& internet, TracerouteConfig config);

  /// Traces from a host in `src` to `destination`, using `table` (which
  /// must be the routing table towards the destination's AS). `flow`
  /// distinguishes source hosts / flow ids: different flows traverse
  /// different router interfaces inside each AS (ECMP-style), which is how
  /// probing from many VMs gains extra visibility. `probe_time` is the
  /// probe's position on the campaign timeline; with flap faults active it
  /// selects the flap epoch, so probes issued at different times can
  /// observe disagreeing paths. Clean configs ignore it.
  Traceroute trace(AsIndex src, Ipv4 destination, const RoutingTable& table,
                   std::uint64_t flow = 0, std::uint64_t probe_time = 0) const;

  /// Ground-truth helpers for tests.
  bool router_silent(AsIndex as, Ipv4 router_ip) const noexcept;
  bool as_silent(AsIndex as) const noexcept;
  /// True when `as` is flap-prone under this config's fault knobs.
  bool as_flapping(AsIndex as) const noexcept;
  /// True when a flap-prone AS has withdrawn its best route at
  /// `probe_time` (epoch = probe_time / flap_period).
  bool flap_down(AsIndex as, std::uint64_t probe_time) const noexcept;

  /// Deterministic router interface address `slot` of an AS (carved from
  /// the reserved low range of its infra block).
  Ipv4 router_ip(AsIndex as, std::uint64_t slot) const;

 private:
  const Internet& internet_;
  TracerouteConfig config_;
};

}  // namespace repro
