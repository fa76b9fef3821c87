#include "route/traceroute.h"

#include "util/error.h"

namespace repro {

namespace {

/// Router interfaces live in the low 256 addresses of each AS's infra
/// block (offnet servers start above; see hypergiant/deployment.cpp).
constexpr std::uint64_t kRouterSlots = 256;

/// TTL budget of the forwarding walk in AS hops: flap detours can form
/// transient forwarding loops (as on the real Internet during convergence),
/// and the walk cuts them the way a real traceroute does -- by running out
/// of TTL. Clean best paths are far shorter.
constexpr std::size_t kMaxAsHops = 32;

// Flap hash-stream salts, independent of the ECMP/silence streams.
constexpr std::uint64_t kFlapAsSalt = 0xF1A9;
constexpr std::uint64_t kFlapEpochSalt = 0xE70C;

}  // namespace

TracerouteEngine::TracerouteEngine(const Internet& internet,
                                   TracerouteConfig config)
    : internet_(internet), config_(config) {}

Ipv4 TracerouteEngine::router_ip(AsIndex as, std::uint64_t slot) const {
  require(as < internet_.ases.size(), "router_ip: bad AS index");
  const Prefix& infra = internet_.ases[as].infra.pool();
  return infra.at(slot % kRouterSlots);
}

bool TracerouteEngine::as_silent(AsIndex as) const noexcept {
  return hash_uniform(mix64(config_.seed ^ 0xA5) ^ mix64(as)) <
         config_.silent_as_rate;
}

bool TracerouteEngine::router_silent(AsIndex as, Ipv4 router_address) const noexcept {
  if (as_silent(as)) return true;
  return hash_uniform(mix64(config_.seed ^ 0x5A) ^
                      mix64(router_address.value())) < config_.silent_router_rate;
}

bool TracerouteEngine::as_flapping(AsIndex as) const noexcept {
  return hash_uniform(mix64(config_.fault_seed ^ kFlapAsSalt) ^ mix64(as)) <
         config_.flap_rate;
}

bool TracerouteEngine::flap_down(AsIndex as,
                                 std::uint64_t probe_time) const noexcept {
  const std::uint64_t period = config_.flap_period == 0 ? 1 : config_.flap_period;
  const std::uint64_t epoch = probe_time / period;
  return (mix64(mix64(config_.fault_seed ^ kFlapEpochSalt) ^ mix64(as) ^
                mix64(epoch)) &
          1) != 0;
}

Traceroute TracerouteEngine::trace(AsIndex src, Ipv4 destination,
                                   const RoutingTable& table,
                                   std::uint64_t flow,
                                   std::uint64_t probe_time) const {
  Traceroute result;
  result.src = src;
  result.destination = destination;
  if (!table.entry(src).reachable) return result;  // all probes time out

  const auto push_router = [&](AsIndex as, Ipv4 address) {
    TracerouteHop hop;
    hop.true_owner = as;
    if (!router_silent(as, address)) hop.ip = address;
    result.hops.push_back(hop);
  };

  // Walk the forwarding graph hop by hop: a flap-down AS forwards via its
  // alternate route (path divergence) or, with no second route, blackholes
  // the probe. At flap_rate 0 no AS is flap-prone and the walk follows the
  // best path.
  AsIndex current = src;
  std::size_t visited = 0;
  while (true) {
    // Intra-AS hops: deterministic count of 1-3 from the AS identity. Skip
    // the source AS's ingress (the probe starts inside it) and give each
    // position a stable interface slot.
    const auto intra =
        1 + mix64(mix64(config_.seed ^ 0x77) ^ mix64(current)) % 3;
    for (std::uint64_t k = 0; k < intra; ++k) {
      if (visited == 0 && k == 0) continue;
      push_router(current,
                  router_ip(current,
                            mix64((current * 131ULL + k) ^ mix64(flow)) % 199));
    }

    if (current == table.destination()) {
      TracerouteHop final_hop;
      final_hop.true_owner = current;
      const bool responds =
          hash_uniform(mix64(config_.seed ^ 0xD0) ^ mix64(destination.value())) <
          config_.destination_responds;
      if (responds) final_hop.ip = destination;
      result.hops.push_back(final_hop);
      result.destination_reached = responds;
      return result;
    }
    if (++visited > kMaxAsHops) {
      result.flap_truncated = true;  // transient loop: probe ran out of TTL
      return result;
    }

    const RouteEntry* route = &table.entry(current);
    if (as_flapping(current) && flap_down(current, probe_time)) {
      const RouteEntry& fallback = table.alternate(current);
      if (!fallback.reachable) {
        result.flap_truncated = true;  // withdrawn, no second route: blackhole
        return result;
      }
      route = &fallback;
      result.flap_detoured = true;
    }

    const AsIndex next = route->next_hop;
    // A flapping *destination* AS withdraws its announcement during down
    // epochs: the upstream border loses the route and the probe dies here
    // instead of crossing the last interdomain hop. Without this, targets
    // one AS hop from the source (the common direct-peering case) could
    // never exhibit instability -- no intermediate AS exists to flap.
    if (next == table.destination() && as_flapping(next) &&
        flap_down(next, probe_time)) {
      result.flap_truncated = true;
      return result;
    }
    // Interdomain handoff to the next AS. BGP picks one route, but the
    // *link* used depends on where the flow enters the border (hot-potato /
    // ECMP across parallel interconnects); model that by letting the flow id
    // choose among the parallel peering links of the pair.
    LinkIndex via = route->via_link;
    if (route->kind == RouteKind::kPeer) {
      const auto parallel = internet_.peering_links_between(current, next);
      if (parallel.size() > 1) {
        via = parallel[mix64(flow ^ mix64(current * 31ULL + next)) % parallel.size()];
      }
    }
    const InterdomainLink& link = internet_.links[via];
    if (link.kind == LinkKind::kIxpPeering) {
      // The next hop is the neighbor's registered port on the IXP peering
      // LAN.
      const Ixp& ixp = internet_.ixps[link.ixp];
      Ipv4 port_address = ixp.peering_lan.at(2);  // fallback
      for (std::uint64_t offset = 2; offset < ixp.peering_lan.size(); ++offset) {
        const auto info = internet_.ixp_port_of_ip(ixp.peering_lan.at(offset));
        if (info && info->ixp == link.ixp && info->member == next) {
          port_address = ixp.peering_lan.at(offset);
          break;
        }
      }
      push_router(next, port_address);
    } else {
      // PNI / transit handoff: the neighbor's border interface.
      push_router(next, router_ip(next, mix64(next * 131ULL ^ mix64(flow)) % 199));
    }
    current = next;
  }
}

}  // namespace repro
