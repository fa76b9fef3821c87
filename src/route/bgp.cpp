#include "route/bgp.h"

#include "obs/metrics.h"
#include "util/error.h"

namespace repro {

namespace {

/// Preference between two routes: kind (enum order is the preference), then
/// shorter path, then lower next-hop ASN. Strict, so the first of two equal
/// offers stays installed.
bool better(const Internet& internet, const RouteEntry& candidate,
            const RouteEntry& current) {
  if (!current.reachable) return true;
  if (candidate.kind != current.kind) return candidate.kind < current.kind;
  if (candidate.path_length != current.path_length) {
    return candidate.path_length < current.path_length;
  }
  return internet.ases[candidate.next_hop].asn <
         internet.ases[current.next_hop].asn;
}

}  // namespace

std::string_view to_string(RouteKind kind) noexcept {
  switch (kind) {
    case RouteKind::kSelf: return "self";
    case RouteKind::kCustomer: return "customer";
    case RouteKind::kPeer: return "peer";
    case RouteKind::kProvider: return "provider";
  }
  return "?";
}

RoutingTable::RoutingTable(const Internet& internet, AsIndex destination)
    : internet_(&internet), destination_(destination) {
  require(destination < internet.ases.size(), "routes_to: bad destination");
  memo_[destination].best =
      RouteEntry{true, RouteKind::kSelf, destination, kInvalidIndex, 0};

  // Customer routes. The destination's announcement climbs provider chains;
  // an AS that hears it from a customer installs a customer route. BFS by
  // path length, re-queueing an AS whenever its route improves, so each
  // climbed AS ends at its unique best route.
  std::vector<AsIndex> frontier{destination};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const AsIndex current = frontier[head];
    const int length = memo_.at(current).best.path_length + 1;
    for (const LinkIndex li : internet.ases[current].provider_links) {
      const AsIndex provider = internet.links[li].b;
      const RouteEntry candidate{true, RouteKind::kCustomer, current, li, length};
      const auto [it, first_time] = memo_.try_emplace(provider);
      RouteEntry& installed = it->second.best;
      if (!first_time && !better(internet, candidate, installed)) continue;
      installed = candidate;
      frontier.push_back(provider);
    }
  }
  climbed_.reserve(memo_.size());
  for (const auto& [as, resolved] : memo_) {
    climbed_.emplace_back(as, resolved.best.path_length);
  }
}

RoutingTable::Resolved& RoutingTable::resolve(AsIndex source,
                                              std::size_t depth) const {
  if (const auto it = memo_.find(source); it != memo_.end()) return it->second;
  require(depth <= internet_->ases.size(), "RoutingTable: provider cycle");
  const Internet& net = *internet_;

  // Peer route: only a climbed AS (customer or self route) exports to peers.
  RouteEntry route;
  for (const auto& [climbed, length] : climbed_) {
    const auto parallel = net.peering_links_between(climbed, source);
    if (parallel.empty()) continue;
    const RouteEntry candidate{true, RouteKind::kPeer, climbed,
                               parallel.front(), length + 1};
    if (better(net, candidate, route)) route = candidate;
  }
  // Provider route: every routed provider exports to its customers.
  if (!route.reachable) {
    for (const LinkIndex li : net.ases[source].provider_links) {
      const AsIndex provider = net.links[li].b;
      const RouteEntry& upstream = resolve(provider, depth + 1).best;
      if (!upstream.reachable) continue;
      const RouteEntry candidate{true, RouteKind::kProvider, provider, li,
                                 upstream.path_length + 1};
      if (better(net, candidate, route)) route = candidate;
    }
  }
  Resolved& resolved = memo_[source];
  resolved.best = route;
  return resolved;
}

RouteEntry RoutingTable::second_best(AsIndex source,
                                     const RouteEntry& best) const {
  // Every neighbour re-offers its installed route where the Gao-Rexford
  // export rules allow; the source keeps the best offer arriving through a
  // different next hop than its installed route.
  RouteEntry alternate;
  if (source == destination_ || !best.reachable) return alternate;
  const Internet& net = *internet_;
  const auto offer = [&](const RouteEntry& candidate) {
    if (candidate.next_hop == best.next_hop) return;  // same next hop
    // Refuse an alternate whose first hop immediately routes back through
    // us; longer transient loops are possible (as on the real Internet) and
    // are the traceroute walker's TTL cap to absorb.
    if (resolve(candidate.next_hop).best.next_hop == source) return;
    if (better(net, candidate, alternate)) alternate = candidate;
  };
  // Customer and self routes are exported to providers and peers.
  for (const auto& [climbed, length] : climbed_) {
    for (const LinkIndex li : net.ases[climbed].provider_links) {
      if (net.links[li].b != source) continue;
      offer(RouteEntry{true, RouteKind::kCustomer, climbed, li, length + 1});
    }
    const auto parallel = net.peering_links_between(climbed, source);
    if (!parallel.empty()) {
      offer(RouteEntry{true, RouteKind::kPeer, climbed, parallel.front(),
                       length + 1});
    }
  }
  // Any route is exported to customers.
  for (const LinkIndex li : net.ases[source].provider_links) {
    const AsIndex provider = net.links[li].b;
    const RouteEntry& upstream = resolve(provider).best;
    if (!upstream.reachable) continue;
    offer(RouteEntry{true, RouteKind::kProvider, provider, li,
                     upstream.path_length + 1});
  }
  return alternate;
}

const RouteEntry& RoutingTable::entry(AsIndex source) const {
  require(source < internet_->ases.size(), "RoutingTable::entry: bad AS index");
  return resolve(source).best;
}

const RouteEntry& RoutingTable::alternate(AsIndex source) const {
  require(source < internet_->ases.size(),
          "RoutingTable::alternate: bad AS index");
  Resolved& resolved = resolve(source);
  if (!resolved.alternate_resolved) {
    resolved.alternate = second_best(source, resolved.best);
    resolved.alternate_resolved = true;
  }
  return resolved.alternate;
}

std::vector<AsIndex> RoutingTable::as_path(AsIndex source) const {
  std::vector<AsIndex> path;
  AsIndex current = source;
  while (true) {
    const RouteEntry& e = entry(current);
    if (!e.reachable) return {};
    path.push_back(current);
    if (current == destination_) return path;
    require(path.size() <= internet_->ases.size(), "RoutingTable: path loop");
    current = e.next_hop;
  }
}

std::vector<LinkIndex> RoutingTable::link_path(AsIndex source) const {
  std::vector<LinkIndex> links;
  AsIndex current = source;
  while (current != destination_) {
    const RouteEntry& e = entry(current);
    if (!e.reachable) return {};
    links.push_back(e.via_link);
    require(links.size() <= internet_->ases.size(), "RoutingTable: link loop");
    current = e.next_hop;
  }
  return links;
}

RoutingEngine::RoutingEngine(const Internet& internet) : internet_(internet) {}

RoutingTable RoutingEngine::routes_to(AsIndex destination) const {
  // Times the climb only: every other route resolves on first read.
  obs::ScopedTimer timer("route.routes_to_ms");
  // routes_to is called once per destination across whole-mesh studies, so
  // skip the registry map lookup on every call.
  static obs::CachedCounter tables_computed("route.tables_computed");
  tables_computed.add(1);
  return RoutingTable(internet_, destination);
}

}  // namespace repro
