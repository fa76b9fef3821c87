#include "topology/internet.h"

#include <algorithm>

#include "util/error.h"

namespace repro {

namespace {

std::uint64_t pair_key(AsIndex a, AsIndex b) noexcept {
  const auto [low, high] = std::minmax(a, b);
  return std::uint64_t{low} << 32 | high;
}

}  // namespace

MetroIndex Internet::add_metro(Metro metro) {
  metro.index = static_cast<MetroIndex>(metros.size());
  metros.push_back(std::move(metro));
  return metros.back().index;
}

FacilityIndex Internet::add_facility(Facility facility) {
  facility.index = static_cast<FacilityIndex>(facilities.size());
  require(facility.metro < metros.size(), "add_facility: bad metro index");
  facilities.push_back(std::move(facility));
  return facilities.back().index;
}

IxpIndex Internet::add_ixp(Ixp ixp) {
  ixp.index = static_cast<IxpIndex>(ixps.size());
  require(ixp.metro < metros.size(), "add_ixp: bad metro index");
  ixps.push_back(std::move(ixp));
  return ixps.back().index;
}

AsIndex Internet::add_as(As as) {
  as.index = static_cast<AsIndex>(ases.size());
  require(as.asn != 0, "add_as: ASN must be nonzero");
  require(!asn_index_.contains(as.asn), "add_as: duplicate ASN");
  asn_index_.emplace(as.asn, as.index);
  ases.push_back(std::move(as));
  return ases.back().index;
}

LinkIndex Internet::add_link(InterdomainLink link) {
  link.index = static_cast<LinkIndex>(links.size());
  require(link.a < ases.size() && link.b < ases.size(), "add_link: bad AS index");
  require(link.a != link.b, "add_link: self-link");
  if (link.kind == LinkKind::kTransit) {
    ases[link.a].provider_links.push_back(link.index);
    ases[link.b].customer_links.push_back(link.index);
  } else {
    ases[link.a].peer_links.push_back(link.index);
    ases[link.b].peer_links.push_back(link.index);
    PairBlock& block = peer_pairs_[pair_key(link.a, link.b)];
    const auto tail = static_cast<std::uint32_t>(peer_pair_links_.size());
    if (block.offset + block.count != tail) {
      for (std::uint32_t i = 0; i < block.count; ++i) {
        const LinkIndex moved = peer_pair_links_[block.offset + i];
        peer_pair_links_.push_back(moved);
      }
      block.offset = tail;
    }
    peer_pair_links_.push_back(link.index);
    ++block.count;
  }
  links.push_back(link);
  return link.index;
}

void Internet::announce(AsIndex index, const Prefix& prefix) {
  require(index < ases.size(), "announce: bad AS index");
  ip_to_as_.insert(prefix, index);
}

void Internet::register_ixp_port(Ipv4 address, IxpIndex ixp, AsIndex member) {
  require(ixp < ixps.size() && member < ases.size(), "register_ixp_port: bad index");
  ixp_ports_[address] = IxpPortInfo{ixp, member};
}

AsIndex Internet::as_by_asn(AsNumber asn) const {
  const auto found = find_as_by_asn(asn);
  if (!found) throw NotFoundError("ASN " + std::to_string(asn));
  return *found;
}

std::optional<AsIndex> Internet::find_as_by_asn(AsNumber asn) const noexcept {
  const auto it = asn_index_.find(asn);
  if (it == asn_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<AsIndex> Internet::as_of_ip(Ipv4 address) const {
  return ip_to_as_.lookup(address);
}

std::optional<IxpPortInfo> Internet::ixp_port_of_ip(Ipv4 address) const {
  const auto it = ixp_ports_.find(address);
  if (it == ixp_ports_.end()) return std::nullopt;
  return it->second;
}

const CountryInfo& Internet::country_of_as(AsIndex index) const {
  require(index < ases.size(), "country_of_as: bad AS index");
  return all_countries()[ases[index].country];
}

const Metro& Internet::metro_of_facility(FacilityIndex index) const {
  require(index < facilities.size(), "metro_of_facility: bad facility index");
  return metros[facilities[index].metro];
}

std::vector<AsIndex> Internet::access_isps() const {
  std::vector<AsIndex> out;
  for (const auto& as : ases) {
    if (as.tier == AsTier::kAccess) out.push_back(as.index);
  }
  return out;
}

double Internet::total_access_users() const noexcept {
  double total = 0.0;
  for (const auto& as : ases) {
    if (as.tier == AsTier::kAccess) total += as.users;
  }
  return total;
}

std::vector<FacilityIndex> Internet::hosting_options(AsIndex as_index,
                                                     MetroIndex metro) const {
  require(as_index < ases.size(), "hosting_options: bad AS index");
  require(metro < metros.size(), "hosting_options: bad metro index");
  std::vector<FacilityIndex> out;
  for (const FacilityIndex fi : ases[as_index].facilities) {
    if (facilities[fi].metro == metro) out.push_back(fi);
  }
  for (const auto& facility : facilities) {
    if (facility.metro == metro && facility.kind == FacilityKind::kColocation) {
      out.push_back(facility.index);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<AsIndex> Internet::peers_of(AsIndex as_index) const {
  require(as_index < ases.size(), "peers_of: bad AS index");
  std::vector<AsIndex> out;
  for (const LinkIndex li : ases[as_index].peer_links) {
    const auto& link = links[li];
    out.push_back(link.a == as_index ? link.b : link.a);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::span<const LinkIndex> Internet::peering_links_between(AsIndex a,
                                                          AsIndex b) const {
  require(a < ases.size() && b < ases.size(),
          "peering_links_between: bad AS index");
  const auto it = peer_pairs_.find(pair_key(a, b));
  if (it == peer_pairs_.end()) return {};
  return {peer_pair_links_.data() + it->second.offset, it->second.count};
}

bool Internet::has_peering(AsIndex a, AsIndex b) const {
  require(a < ases.size() && b < ases.size(), "has_peering: bad AS index");
  return peer_pairs_.contains(pair_key(a, b));
}

}  // namespace repro
