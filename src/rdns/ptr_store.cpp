#include "rdns/ptr_store.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/strings.h"

namespace repro {

namespace {

std::string_view hg_tag(Hypergiant hg) noexcept {
  switch (hg) {
    case Hypergiant::kGoogle: return "ggc";
    case Hypergiant::kNetflix: return "oca";
    case Hypergiant::kMeta: return "fna";
    case Hypergiant::kAkamai: return "aka";
  }
  return "cdn";
}

// Fault hash-stream salts, independent of each other and of the synthesis
// Rng (which is keyed on PtrConfig::seed, not fault_seed).
constexpr std::uint64_t kMissingPtrSalt = 0x9199;
constexpr std::uint64_t kStalePtrSalt = 0x57A1;
constexpr std::uint64_t kGarblePtrSalt = 0x6B1D;

std::uint64_t ip_key(Ipv4 ip, std::uint64_t seed, std::uint64_t salt) noexcept {
  return mix64((std::uint64_t{ip.value()} << 8) ^ seed ^ salt);
}

/// Encoding-damaged hostname: full tokens of hex junk, so HOIHO's
/// whole-token dictionary can never read a location out of it.
std::string garbled_hostname(Ipv4 ip, std::uint64_t seed,
                             const std::string& domain) {
  char junk[32];
  std::snprintf(junk, sizeof(junk), "x%016llx",
                static_cast<unsigned long long>(
                    mix64(ip.value() ^ seed ^ kGarblePtrSalt)));
  return std::string(junk) + "." + domain;
}

}  // namespace

std::string metro_alias_code(const std::string& iata) {
  // A distinct 4-character namespace so aliases never collide with another
  // metro's main code.
  return iata + "2";
}

PtrStore PtrStore::build(const Internet& internet, const OffnetRegistry& registry,
                         const PtrConfig& config, PtrFaultCounts* faults) {
  obs::ScopedSpan span("rdns.build_ptr_store");
  static obs::CachedCounter records_counter("rdns.records");
  static obs::CachedCounter missing_counter("rdns.missing_ptr");
  static obs::CachedCounter stale_counter("rdns.stale_ptr");
  static obs::CachedCounter garbled_counter("rdns.garbled_ptr");
  PtrFaultCounts counts;
  PtrStore store;
  for (const OffnetServer& server : registry.servers()) {
    Rng rng(mix64(config.seed ^ (std::uint64_t{server.ip.value()} << 13)));
    if (!rng.chance(config.coverage)) continue;

    if (config.missing_ptr_rate > 0.0 &&
        hash_uniform(ip_key(server.ip, config.fault_seed, kMissingPtrSalt)) <
            config.missing_ptr_rate) {
      ++counts.missing;  // the zone withdrew this record mid-snapshot
      continue;
    }

    const As& isp = internet.ases[server.isp];
    const std::string domain = "as" + std::to_string(isp.asn) + ".example.net";
    const std::string host_id = std::to_string(server.ip.value() & 0xffff);

    const bool garbled =
        config.garbled_ptr_rate > 0.0 &&
        hash_uniform(ip_key(server.ip, config.fault_seed, kGarblePtrSalt)) <
            config.garbled_ptr_rate;

    if (rng.chance(config.generic_rate)) {
      // Generic name, no usable location information. "host-" names are the
      // trap HOIHO misreads as Hostert, LU before manual correction.
      static constexpr const char* kGenericPrefixes[] = {"static", "host",
                                                         "pool", "dyn"};
      const auto prefix = kGenericPrefixes[rng.uniform_int(0, 3)];
      std::string name = std::string(prefix) + "-" + host_id + "." + domain;
      if (garbled) {
        name = garbled_hostname(server.ip, config.fault_seed, domain);
        ++counts.garbled;
      }
      store.records_.emplace(server.ip, std::move(name));
      continue;
    }

    const Metro& true_metro =
        internet.metros[internet.facilities[server.facility].metro];
    std::string code = true_metro.iata;
    if (rng.chance(config.wrong_location_rate)) {
      // Stale record: the code of a random other metro.
      const auto other = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(internet.metros.size()) - 1));
      code = internet.metros[other].iata;
    } else if (rng.chance(config.alias_rate)) {
      code = metro_alias_code(true_metro.iata);
    }
    // Injected staleness rides on top of the baseline defects: the record
    // still names the metro this server occupied before a migration. Applied
    // after every Rng draw so the synthesis stream is untouched.
    if (!garbled && config.stale_ptr_rate > 0.0 && internet.metros.size() > 1 &&
        hash_uniform(ip_key(server.ip, config.fault_seed, kStalePtrSalt)) <
            config.stale_ptr_rate) {
      const std::size_t step =
          1 + mix64(ip_key(server.ip, config.fault_seed, kStalePtrSalt) ^
                    0x1DULL) %
                  (internet.metros.size() - 1);
      code = internet.metros[(true_metro.index + step) % internet.metros.size()]
                 .iata;
      ++counts.stale;
    }

    std::string name = "cache-" + std::string(hg_tag(server.hg)) + "-" + code +
                       "-" + host_id + "." + domain;
    if (garbled) {
      name = garbled_hostname(server.ip, config.fault_seed, domain);
      ++counts.garbled;
    }
    store.records_.emplace(server.ip, std::move(name));
  }
  records_counter.add(store.records_.size());
  missing_counter.add(counts.missing);
  stale_counter.add(counts.stale);
  garbled_counter.add(counts.garbled);
  if (faults != nullptr) *faults = counts;
  return store;
}

std::optional<std::string> PtrStore::lookup(Ipv4 ip) const {
  const auto it = records_.find(ip);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

}  // namespace repro
