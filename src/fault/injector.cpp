#include "fault/injector.h"

#include <algorithm>
#include <cstdio>

#include "util/rng.h"

namespace repro::fault {

namespace {

// Salts keep the per-pathology hash streams independent of each other and
// of the measurement-noise streams inside PingMesh.
constexpr std::uint64_t kShardSalt = 0x5C5C;
constexpr std::uint64_t kBurstRegionSalt = 0xB0B0;
constexpr std::uint64_t kBurstRecordSalt = 0xB1B1;
constexpr std::uint64_t kCertGarbleSalt = 0x6A6A;
constexpr std::uint64_t kCertChurnSalt = 0xC4C4;

std::uint64_t ip_key(Ipv4 ip, std::uint64_t seed, std::uint64_t salt) noexcept {
  return mix64((std::uint64_t{ip.value()} << 8) ^ seed ^ salt);
}

}  // namespace

TlsEndpoints inject_scan_faults(TlsEndpoints records, const FaultPlan& plan,
                                ScanFaultOutcome* outcome) {
  const ScanFaults& faults = plan.scan;
  const bool truncating = faults.shard_truncation > 0.0;
  const bool bursting =
      faults.burst_coverage > 0.0 && faults.burst_miss_rate > 0.0;
  if (!truncating && !bursting) return records;

  auto kept = records.endpoints.begin();
  for (const TlsEndpoint& record : records.endpoints) {
    const std::uint32_t ip = record.ip.value();
    if (truncating) {
      const std::uint64_t shard = ip >> 24;
      if (hash_uniform(mix64(plan.seed ^ kShardSalt) ^ mix64(shard)) <
          faults.shard_truncation) {
        if (outcome != nullptr) ++outcome->truncated;
        continue;
      }
    }
    if (bursting) {
      const std::uint64_t region = ip >> 16;
      if (hash_uniform(mix64(plan.seed ^ kBurstRegionSalt) ^ mix64(region)) <
              faults.burst_coverage &&
          hash_uniform(ip_key(record.ip, plan.seed, kBurstRecordSalt)) <
              faults.burst_miss_rate) {
        if (outcome != nullptr) ++outcome->burst_missed;
        continue;
      }
    }
    *kept++ = record;
  }
  records.endpoints.erase(kept, records.endpoints.end());
  return records;
}

void inject_cert_faults(TlsEndpoints& population, const FaultPlan& plan,
                        CertFaultOutcome* outcome) {
  const CertFaults& faults = plan.cert;
  if (faults.churn_rate <= 0.0 && faults.garbled_cn_rate <= 0.0) return;

  std::vector<TlsCertificate>& table = population.certs;
  CertInterner interner(table);
  // Churn re-keys every endpoint of a template alike, so each template's
  // churned entry is interned once.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> churned_ids(table.size(), kNone);
  for (TlsEndpoint& endpoint : population.endpoints) {
    if (faults.garbled_cn_rate > 0.0 &&
        hash_uniform(ip_key(endpoint.ip, plan.seed, kCertGarbleSalt)) <
            faults.garbled_cn_rate) {
      char junk[32];
      std::snprintf(junk, sizeof(junk), "garbled-%016llx",
                    static_cast<unsigned long long>(
                        mix64(endpoint.ip.value() ^ plan.seed)));
      TlsCertificate cert = table[endpoint.cert];
      cert.subject.common_name = junk;
      cert.subject.organization.clear();
      cert.san_dns.clear();
      endpoint.cert = interner.intern(std::move(cert));
      if (outcome != nullptr) ++outcome->garbled;
      continue;
    }
    if (faults.churn_rate > 0.0 &&
        hash_uniform(ip_key(endpoint.ip, plan.seed, kCertChurnSalt)) <
            faults.churn_rate) {
      endpoint.serial = mix64(endpoint.serial + 1);
      std::uint32_t& churned = churned_ids[endpoint.cert];
      if (churned == kNone) {
        TlsCertificate cert = table[endpoint.cert];
        cert.not_before_year = 2023;
        cert.not_after_year = 2026;
        churned = interner.intern(std::move(cert));
      }
      endpoint.cert = churned;
      if (outcome != nullptr) ++outcome->churned;
    }
  }
}

void apply_ping_faults(PingConfig& config, const FaultPlan& plan) {
  // Gate on the ping/anycast knobs specifically, not plan.active(): a plan
  // carrying only route/rdns/store faults must leave the ping config (and
  // with it the measurement digest) untouched, so such plans keep sharing
  // measurement artifacts with the clean baseline.
  if (plan.ping.vp_outage_rate <= 0.0 && plan.ping.icmp_storm_rate <= 0.0 &&
      plan.ping.extra_unresponsive_rate <= 0.0 &&
      plan.anycast.impossible_ip_rate <= 0.0) {
    return;
  }
  const auto add_rate = [](double base, double extra) {
    return std::clamp(base + extra, 0.0, 0.95);
  };
  config.fault_seed = plan.seed;
  config.vp_outage_rate = add_rate(config.vp_outage_rate,
                                   plan.ping.vp_outage_rate);
  config.icmp_storm_isp_rate = add_rate(config.icmp_storm_isp_rate,
                                        plan.ping.icmp_storm_rate);
  if (plan.ping.icmp_storm_rate > 0.0) {
    config.icmp_storm_failure = plan.ping.icmp_storm_failure;
  }
  config.unresponsive_ip_rate = add_rate(config.unresponsive_ip_rate,
                                         plan.ping.extra_unresponsive_rate);
  config.split_personality_rate = add_rate(config.split_personality_rate,
                                           plan.anycast.impossible_ip_rate);
}

void apply_route_faults(TracerouteConfig& config, const FaultPlan& plan) {
  if (plan.route.flap_rate <= 0.0) return;
  config.fault_seed = plan.seed;
  config.flap_rate = std::clamp(plan.route.flap_rate, 0.0, 0.95);
  config.flap_period = plan.route.flap_period == 0 ? 1 : plan.route.flap_period;
}

void apply_rdns_faults(PtrConfig& config, const FaultPlan& plan) {
  const RdnsFaults& faults = plan.rdns;
  if (faults.missing_ptr_rate <= 0.0 && faults.stale_ptr_rate <= 0.0 &&
      faults.garbled_ptr_rate <= 0.0) {
    return;
  }
  const auto clamp_rate = [](double rate) {
    return std::clamp(rate, 0.0, 0.95);
  };
  config.fault_seed = plan.seed;
  config.missing_ptr_rate = clamp_rate(faults.missing_ptr_rate);
  config.stale_ptr_rate = clamp_rate(faults.stale_ptr_rate);
  config.garbled_ptr_rate = clamp_rate(faults.garbled_ptr_rate);
}

}  // namespace repro::fault
