#include "route/ixp_registry.h"

#include "util/rng.h"

namespace repro {

IxpRegistry IxpRegistry::build(const Internet& internet,
                               const IxpRegistryConfig& config) {
  IxpRegistry registry;
  for (const Ixp& ixp : internet.ixps) {
    // Peering LANs themselves are well known (every source lists them).
    registry.lans_.insert(ixp.peering_lan, ixp.index);
    for (std::uint64_t offset = 0; offset < ixp.peering_lan.size(); ++offset) {
      const Ipv4 address = ixp.peering_lan.at(offset);
      const auto info = internet.ixp_port_of_ip(address);
      if (!info) continue;
      const AsNumber asn = internet.ases[info->member].asn;
      const std::uint64_t key = mix64(config.seed ^ address.value());
      if (hash_uniform(key) < config.euroix_coverage) {
        registry.ports_[address] =
            IxpMapping{info->ixp, asn, IxpDataSource::kEuroIx};
      } else if (hash_uniform(mix64(key)) < config.peeringdb_coverage) {
        registry.ports_[address] =
            IxpMapping{info->ixp, asn, IxpDataSource::kPeeringDb};
      }
    }
  }
  return registry;
}

bool IxpRegistry::is_ixp_lan(Ipv4 address) const {
  return lans_.lookup(address).has_value();
}

std::optional<IxpMapping> IxpRegistry::port_lookup(Ipv4 address) const {
  const auto it = ports_.find(address);
  if (it == ports_.end()) return std::nullopt;
  return it->second;
}

}  // namespace repro
