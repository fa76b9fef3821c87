// The Internet model: owns all topology entities and provides the lookup
// indices the measurement substrates need (ASN resolution, IP-to-AS mapping,
// IXP peering-LAN address attribution).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ip/prefix_trie.h"
#include "topology/country.h"
#include "topology/entities.h"

namespace repro {

/// Attribution of an IXP peering-LAN address: which fabric, which member.
struct IxpPortInfo {
  IxpIndex ixp = kInvalidIndex;
  AsIndex member = kInvalidIndex;
};

/// Owns the generated world. Entities are stored in vectors and addressed by
/// index; indices are stable for the lifetime of the object.
class Internet {
 public:
  // --- entity storage (populated by InternetGenerator) ---
  std::vector<Metro> metros;
  std::vector<Facility> facilities;
  std::vector<Ixp> ixps;
  std::vector<As> ases;
  std::vector<InterdomainLink> links;

  // --- construction-time registration ---
  MetroIndex add_metro(Metro metro);
  FacilityIndex add_facility(Facility facility);
  IxpIndex add_ixp(Ixp ixp);
  AsIndex add_as(As as);
  /// Adds a link and wires it into both endpoint adjacency lists (and, for a
  /// peering link, the pair index). Links arrive in index order, so every
  /// adjacency list is ascending.
  LinkIndex add_link(InterdomainLink link);

  /// Registers `prefix` as announced by AS `index` (updates the IP->AS trie).
  void announce(AsIndex index, const Prefix& prefix);

  /// Registers an IXP peering-LAN port address for a member.
  void register_ixp_port(Ipv4 address, IxpIndex ixp, AsIndex member);

  // --- lookups ---
  /// AS index by ASN. Throws NotFoundError.
  AsIndex as_by_asn(AsNumber asn) const;
  /// AS index by ASN; nullopt when unknown.
  std::optional<AsIndex> find_as_by_asn(AsNumber asn) const noexcept;

  /// Longest-prefix-match attribution of an address to an AS.
  std::optional<AsIndex> as_of_ip(Ipv4 address) const;

  /// IXP port attribution; nullopt if the address is not on a peering LAN.
  std::optional<IxpPortInfo> ixp_port_of_ip(Ipv4 address) const;

  const CountryInfo& country_of_as(AsIndex index) const;
  const Metro& metro_of_facility(FacilityIndex index) const;

  /// All access-tier AS indices (the candidate offnet hosts).
  std::vector<AsIndex> access_isps() const;

  /// Total APNIC-style Internet users across access ISPs.
  double total_access_users() const noexcept;

  /// Facilities located in `metro` that `as_index` can host servers in
  /// (its own facilities there plus the metro's colocation facilities).
  std::vector<FacilityIndex> hosting_options(AsIndex as_index,
                                             MetroIndex metro) const;

  /// Neighbors of `as_index` reachable over peering links (PNI or IXP).
  std::vector<AsIndex> peers_of(AsIndex as_index) const;

  /// True if a peering (PNI or IXP) link exists between the two ASes.
  bool has_peering(AsIndex a, AsIndex b) const;

  /// All peering links (PNI and IXP) between two ASes, in index order; O(1).
  /// Parallel links are common between hypergiants and large ISPs. The span
  /// is valid until the next add_link.
  std::span<const LinkIndex> peering_links_between(AsIndex a, AsIndex b) const;

 private:
  /// One AS pair's block in peer_pair_links_.
  struct PairBlock {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  std::unordered_map<AsNumber, AsIndex> asn_index_;
  /// Peering-pair index: unordered AS pair (lower index in the high word) ->
  /// its block of peering links, ascending, in one flat vector. A pair whose
  /// block is not at the tail when another of its links arrives moves it
  /// there; the generator adds a pair's parallel links in a few runs, so
  /// the abandoned blocks stay small (paper world: 22,129 slots for 18,152
  /// peering links over 15,017 pairs).
  std::unordered_map<std::uint64_t, PairBlock> peer_pairs_;
  std::vector<LinkIndex> peer_pair_links_;
  PrefixTrie<AsIndex> ip_to_as_;
  std::unordered_map<Ipv4, IxpPortInfo> ixp_ports_;
};

}  // namespace repro
