// Valley-free interdomain routing (Gao-Rexford policies): for a destination
// AS, every AS's best route under the standard preference customer > peer >
// provider, then shortest AS path, then lowest next-hop ASN. Used by the
// traceroute simulator and the traffic/spillover model.
//
// A RoutingTable resolves routes for one destination on demand: building it
// climbs the destination's provider chain (the customer routes), and each
// other AS's route is resolved on its first read and memoized. A study that
// walks a few paths pays for those paths, not for a whole-graph table; the
// routes are the ones a full three-phase computation would install.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topology/internet.h"

namespace repro {

/// How a route was learned (determines export policy and preference).
enum class RouteKind : std::uint8_t {
  kSelf = 0,   // the destination itself
  kCustomer,   // learned from a customer
  kPeer,       // learned from a peer
  kProvider,   // learned from a provider
};

std::string_view to_string(RouteKind kind) noexcept;

/// One AS's best route towards the table's destination.
struct RouteEntry {
  bool reachable = false;
  RouteKind kind = RouteKind::kSelf;
  AsIndex next_hop = kInvalidIndex;
  LinkIndex via_link = kInvalidIndex;
  int path_length = 0;  // AS hops to the destination
};

/// Routing table for one destination AS, resolved lazily.
///
/// entry(x) is, in order of preference:
///   - a self or customer route, fixed by the constructor's climb up the
///     destination's provider chain (BFS, shortest first);
///   - else a peer route from the best climbed AS that peers with x, over
///     the pair's lowest-index peering link;
///   - else a provider route from the best of x's providers' own entries,
///     resolved recursively up the provider DAG.
/// "Best" is shortest path, then lowest next-hop ASN; parallel links to one
/// neighbour tie and the lowest-index link wins.
///
/// Not thread-safe: reads grow an unsynchronized memo, so a table has one
/// owner (each peering target, each network-load ISP builds its own).
/// References returned by entry() and alternate() stay valid for the
/// table's lifetime.
class RoutingTable {
 public:
  AsIndex destination() const noexcept { return destination_; }

  const RouteEntry& entry(AsIndex source) const;

  /// The source's best valley-free route through a *different* next hop
  /// than entry(source) -- what the AS falls back to when its best route
  /// is withdrawn mid-study (BGP flap). Not reachable when the AS has no
  /// policy-valid second route (a flap then blackholes its traffic).
  const RouteEntry& alternate(AsIndex source) const;

  /// AS-level path source -> destination (inclusive); empty if unreachable.
  std::vector<AsIndex> as_path(AsIndex source) const;

  /// Links traversed along the path (size = path length).
  std::vector<LinkIndex> link_path(AsIndex source) const;

 private:
  friend class RoutingEngine;

  struct Resolved {
    RouteEntry best;
    RouteEntry alternate;
    bool alternate_resolved = false;
  };

  RoutingTable(const Internet& internet, AsIndex destination);

  Resolved& resolve(AsIndex source, std::size_t depth = 0) const;
  RouteEntry second_best(AsIndex source, const RouteEntry& best) const;

  const Internet* internet_;
  AsIndex destination_;
  /// The destination and every AS holding a customer route: exactly the
  /// ASes that export their route to peers and providers.
  std::vector<std::pair<AsIndex, int>> climbed_;  // (AS, path length)
  mutable std::unordered_map<AsIndex, Resolved> memo_;
};

/// Builds routing tables over an Internet's AS graph.
class RoutingEngine {
 public:
  explicit RoutingEngine(const Internet& internet);

  /// Valley-free routes of every AS towards `destination`, resolved on
  /// demand (see RoutingTable).
  RoutingTable routes_to(AsIndex destination) const;

  const Internet& internet() const noexcept { return internet_; }

 private:
  const Internet& internet_;
};

}  // namespace repro
