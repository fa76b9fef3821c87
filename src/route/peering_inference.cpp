#include "route/peering_inference.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace repro {

namespace {

/// Public-data attribution of a hop address: IXP databases first (peering
/// LANs are not announced in BGP), then IP-to-AS longest prefix match.
struct HopAttribution {
  bool mapped = false;
  AsIndex owner = kInvalidIndex;
  bool on_ixp_lan = false;
};

HopAttribution attribute(const Internet& internet, const IxpRegistry& registry,
                         Ipv4 address) {
  HopAttribution out;
  if (registry.is_ixp_lan(address)) {
    out.on_ixp_lan = true;
    const auto mapping = registry.port_lookup(address);
    if (!mapping) return out;  // LAN known, port not in the databases
    const auto as = internet.find_as_by_asn(mapping->member_asn);
    if (!as) return out;
    out.mapped = true;
    out.owner = *as;
    return out;
  }
  const auto as = internet.as_of_ip(address);
  if (!as) return out;
  out.mapped = true;
  out.owner = *as;
  return out;
}

}  // namespace

std::string_view to_string(PeeringStatus status) noexcept {
  switch (status) {
    case PeeringStatus::kPeer: return "peer";
    case PeeringStatus::kPossiblePeer: return "possible";
    case PeeringStatus::kNoEvidence: return "no-evidence";
  }
  return "?";
}

PeeringStudy::PeeringStudy(const Internet& internet,
                           const TracerouteEngine& engine,
                           const IxpRegistry& ixp_registry,
                           PeeringStudyConfig config)
    : internet_(internet),
      engine_(engine),
      ixp_registry_(ixp_registry),
      config_(config) {
  require(config_.vm_count >= 1, "PeeringStudyConfig: need >= 1 VM");
  require(config_.slash24s_per_target >= 1,
          "PeeringStudyConfig: need >= 1 target /24");
}

IspPeeringEvidence PeeringStudy::classify_traceroute(const Traceroute& traceroute,
                                                     AsIndex hg_as,
                                                     AsIndex target) const {
  IspPeeringEvidence evidence;
  evidence.isp = target;
  evidence.traceroutes = 1;

  // Attribute every responsive hop.
  struct Attributed {
    HopAttribution attribution;
    bool responsive = false;
  };
  std::vector<Attributed> hops;
  hops.reserve(traceroute.hops.size());
  for (const TracerouteHop& hop : traceroute.hops) {
    Attributed a;
    a.responsive = hop.ip.has_value();
    if (a.responsive) a.attribution = attribute(internet_, ixp_registry_, *hop.ip);
    hops.push_back(a);
  }

  // Find each hypergiant hop; inspect what follows.
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (!hops[i].responsive || !hops[i].attribution.mapped) continue;
    if (hops[i].attribution.owner != hg_as) continue;
    // Walk forward: stars may only license a "possible" inference.
    std::size_t stars = 0;
    for (std::size_t j = i + 1; j < hops.size(); ++j) {
      if (!hops[j].responsive) {
        ++stars;
        continue;
      }
      if (!hops[j].attribution.mapped) break;  // unknown network in between
      if (hops[j].attribution.owner == hg_as) break;  // still inside the HG
      if (hops[j].attribution.owner == target) {
        if (stars == 0) {
          evidence.status = PeeringStatus::kPeer;
          if (hops[j].attribution.on_ixp_lan) evidence.seen_via_ixp = true;
          else evidence.seen_via_pni = true;
        } else if (evidence.status == PeeringStatus::kNoEvidence) {
          evidence.status = PeeringStatus::kPossiblePeer;
        }
      }
      break;  // only the first mapped hop after the HG matters
    }
    if (evidence.status == PeeringStatus::kPeer) break;
  }
  return evidence;
}

std::vector<Ipv4> PeeringStudy::destinations_of(AsIndex target) const {
  const As& as = internet_.ases[target];
  // One address per announced /24, round-robin over the ISP's user
  // prefixes, capped by config.
  std::vector<Ipv4> out;
  for (const Prefix& prefix : as.user_prefixes) {
    const std::uint64_t slash24s = prefix.size() / 256;
    for (std::uint64_t s = 0;
         s < slash24s && out.size() < config_.slash24s_per_target; ++s) {
      out.push_back(prefix.at(s * 256 + 1));
    }
  }
  if (out.empty() && !as.user_prefixes.empty()) {
    out.push_back(as.user_prefixes.front().at(1));
  }
  if (out.empty()) out.push_back(as.infra.pool().at(255));
  return out;
}

IspPeeringEvidence PeeringStudy::probe_target(
    AsIndex hg_as, AsIndex target, std::span<const Ipv4> destinations,
    const RoutingEngine& routing, std::uint64_t clock_offset) const {
  const RoutingTable table = routing.routes_to(target);
  IspPeeringEvidence aggregate;
  aggregate.isp = target;

  // Per-destination path signature from *observations only* (hop count +
  // whether the destination answered). Under stable routing every probe
  // to one destination agrees on both regardless of VM/flow; disagreement
  // means the path itself changed under the study.
  std::vector<std::pair<std::size_t, bool>> first_signature(
      destinations.size(), {0, false});
  std::vector<bool> signature_seen(destinations.size(), false);

  std::uint64_t probe_time = clock_offset;
  for (std::size_t vm = 0; vm < config_.vm_count; ++vm) {
    for (std::size_t d = 0; d < destinations.size(); ++d) {
      const Traceroute traceroute =
          engine_.trace(hg_as, destinations[d], table,
                        mix64(config_.seed ^ (vm + 1)), probe_time++);
      const IspPeeringEvidence one =
          classify_traceroute(traceroute, hg_as, target);
      ++aggregate.traceroutes;
      aggregate.seen_via_ixp |= one.seen_via_ixp;
      aggregate.seen_via_pni |= one.seen_via_pni;
      if (one.status == PeeringStatus::kPeer) {
        aggregate.status = PeeringStatus::kPeer;
      } else if (one.status == PeeringStatus::kPossiblePeer &&
                 aggregate.status == PeeringStatus::kNoEvidence) {
        aggregate.status = PeeringStatus::kPossiblePeer;
      }
      const std::pair<std::size_t, bool> signature{
          traceroute.hops.size(), traceroute.destination_reached};
      if (!signature_seen[d]) {
        signature_seen[d] = true;
        first_signature[d] = signature;
      } else if (first_signature[d] != signature) {
        aggregate.unstable = true;
      }
    }
  }
  return aggregate;
}

std::map<AsIndex, IspPeeringEvidence> PeeringStudy::run(
    AsIndex hg_as, std::span<const AsIndex> targets,
    const RoutingEngine& routing, PeeringStudyOutcome* outcome) const {
  obs::ScopedSpan span("route.peering_study");
  static obs::CachedCounter probes_counter("route.traceroutes");
  static obs::CachedCounter unstable_counter("route.unstable_targets");
  static obs::CachedCounter downgrade_counter("route.peer_downgrades");

  // One clock for the whole campaign: consecutive probes land in adjacent
  // flap epochs, so the same destination is revisited under evolving
  // routing state. Clean engines ignore the clock entirely. Target i's
  // probes occupy [offset[i], offset[i + 1]) -- a prefix sum of
  // vm_count x |destinations| -- so targets can run in any order, on any
  // thread, and still see exactly the probe times of one serial campaign.
  std::vector<std::vector<Ipv4>> plans(targets.size());
  std::vector<std::uint64_t> offsets(targets.size() + 1, 0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    plans[i] = destinations_of(targets[i]);
    offsets[i + 1] = offsets[i] + config_.vm_count * plans[i].size();
  }

  // Each target writes its own slot; the merge below walks them in target
  // order, so results and counters are bit-identical for any thread count.
  std::vector<IspPeeringEvidence> slots(targets.size());
  const std::size_t block =
      std::max<std::size_t>(1, targets.size() / (default_thread_count() * 8));
  parallel_for_blocks(
      targets.size(), block, [&](std::size_t begin, std::size_t end) {
        // One span and one shard_ms sample per block of targets.
        obs::ScopedSpan shard_span("route.peering_shard");
        obs::ScopedTimer shard_timer("route.peering_shard_ms");
        for (std::size_t i = begin; i < end; ++i) {
          slots[i] = probe_target(hg_as, targets[i], plans[i], routing,
                                  offsets[i]);
        }
      });

  PeeringStudyOutcome local;
  std::map<AsIndex, IspPeeringEvidence> results;
  for (IspPeeringEvidence& evidence : slots) {
    if (evidence.unstable) {
      ++local.unstable_targets;
      if (evidence.status == PeeringStatus::kPeer) {
        evidence.status = PeeringStatus::kPossiblePeer;
        ++local.downgraded_peers;
      }
    }
    results.emplace(evidence.isp, evidence);
  }
  local.targets = targets.size();
  local.probes = offsets.back();
  probes_counter.add(local.probes);
  unstable_counter.add(local.unstable_targets);
  downgrade_counter.add(local.downgraded_peers);
  if (outcome != nullptr) *outcome = local;
  return results;
}

}  // namespace repro
