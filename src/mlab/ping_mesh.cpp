#include "mlab/ping_mesh.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace repro {

namespace {

/// Deterministic exponential draw from a key.
double hash_exponential(std::uint64_t key, double mean) noexcept {
  double u = hash_uniform(key);
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) * mean;
}

std::uint64_t ip_key(Ipv4 ip, std::uint64_t salt) noexcept {
  return mix64((std::uint64_t{ip.value()} << 8) ^ salt);
}

}  // namespace

PingMesh::PingMesh(const Internet& internet, const VantagePointSet& vps,
                   PingConfig config)
    : internet_(internet), vps_(vps), config_(config) {
  require(config_.probes >= 2, "PingConfig: need at least 2 probes");
  require(config_.inflation_min >= 1.0 &&
              config_.inflation_max >= config_.inflation_min,
          "PingConfig: bad inflation range");
  probe_seed_ = mix64(config_.seed ^ 0x99);
  // Round 0 draws from exactly the original stream (salt 0), so
  // retry_budget = 0 -- and any measurement that succeeds on the first
  // round -- is bit-identical to the paper behaviour.
  const int rounds = 1 + std::max(0, config_.retry_budget);
  round_salts_.assign(static_cast<std::size_t>(rounds), 0);
  for (std::size_t round = 1; round < round_salts_.size(); ++round) {
    round_salts_[round] = mix64(config_.fault_seed ^ (0xEE00 + round));
  }
}

bool PingMesh::ip_unresponsive(Ipv4 ip) const noexcept {
  return hash_uniform(ip_key(ip, config_.seed ^ 0x11)) <
         config_.unresponsive_ip_rate;
}

bool PingMesh::ip_split_personality(Ipv4 ip) const noexcept {
  if (ip_unresponsive(ip)) return false;
  return hash_uniform(ip_key(ip, config_.seed ^ 0x22)) <
         config_.split_personality_rate;
}

bool PingMesh::isp_icmp_limited(AsIndex isp) const noexcept {
  return hash_uniform(mix64(config_.seed ^ 0x33) ^ mix64(isp)) <
         config_.icmp_limited_isp_rate;
}

bool PingMesh::vp_dark(std::size_t vp_index) const noexcept {
  if (config_.vp_outage_rate <= 0.0) return false;
  return hash_uniform(mix64(config_.seed ^ config_.fault_seed ^ 0xDA1) ^
                      mix64(vp_index)) < config_.vp_outage_rate;
}

bool PingMesh::isp_storm_limited(AsIndex isp) const noexcept {
  if (config_.icmp_storm_isp_rate <= 0.0) return false;
  return hash_uniform(mix64(config_.seed ^ config_.fault_seed ^ 0x570) ^
                      mix64(isp)) < config_.icmp_storm_isp_rate;
}

double PingMesh::probe_loss(AsIndex isp) const noexcept {
  double loss = config_.probe_loss;
  if (isp_icmp_limited(isp)) loss = config_.icmp_limited_failure;
  if (isp_storm_limited(isp)) {
    loss = std::max(loss, config_.icmp_storm_failure);
  }
  return loss;
}

double PingMesh::route_rtt_ms(const VantagePoint& vp, FacilityIndex facility,
                              int rack) const {
  const GeoPoint& server_location = internet_.facilities[facility].location;
  const double light = min_rtt_ms(vp.location, server_location);
  // Path inflation is a property of the (VP, facility) route.
  const std::uint64_t route_key =
      mix64(config_.seed ^ 0x44) ^ mix64(vp.index * 100003ULL + facility);
  const double inflation =
      config_.inflation_min +
      (config_.inflation_max - config_.inflation_min) * hash_uniform(route_key);
  const double facility_offset =
      hash_exponential(route_key ^ 0x55, config_.facility_offset_mean_ms);
  // Rack key: servers of *any* hypergiant in the same facility and rack
  // share the same top-of-rack path from a given vantage point.
  const std::uint64_t rack_key =
      mix64(route_key ^ 0xBB) ^
      mix64(static_cast<std::uint64_t>(rack) * 2654435761ULL);
  const double rack_offset =
      hash_exponential(rack_key, config_.rack_offset_mean_ms);
  return light * inflation + facility_offset + rack_offset;
}

double PingMesh::ip_offset_ms(Ipv4 ip) const noexcept {
  return (hash_uniform(ip_key(ip, config_.seed ^ 0x66)) * 2.0 - 1.0) *
         config_.per_ip_offset_ms;
}

// Split-personality IPs answer from their real facility or from a distant
// "twin" facility depending on the probe -- we model the per-VP outcome:
// roughly half the VPs see the twin.
bool PingMesh::sees_twin(Ipv4 ip, std::size_t vp_index) const noexcept {
  const std::uint64_t side_key =
      ip_key(ip, config_.seed ^ 0x77) ^ mix64(vp_index);
  return hash_uniform(side_key) < 0.5;
}

FacilityIndex PingMesh::twin_facility(Ipv4 ip) const noexcept {
  // Deterministic per IP, far away in index space.
  return static_cast<FacilityIndex>(mix64(ip_key(ip, config_.seed ^ 0x88)) %
                                    internet_.facilities.size());
}

double PingMesh::probe_jitter_ms(Ipv4 ip, std::size_t vp_index, double loss,
                                 ReprobeTally& tally) const {
  const std::uint64_t cell_seed = probe_seed_ ^ ip_key(ip, vp_index);
  const std::size_t rounds = round_salts_.size();
  for (std::size_t round = 0; round < rounds; ++round) {
    // Per-measurement RNG (deterministic for the (vp, ip, round) triple).
    Rng rng(cell_seed ^ round_salts_[round]);

    // Number of responsive probes ~ Binomial(probes, 1 - loss).
    int responsive = 0;
    for (int i = 0; i < config_.probes; ++i) {
      if (!rng.chance(loss)) ++responsive;
    }
    if (responsive < 2) {
      if (round + 1 < rounds) ++tally.rounds;
      continue;
    }
    if (round > 0) ++tally.recovered;

    // Second-smallest of `responsive` iid exponential jitters, via the order-
    // statistic representation X(k) = sum_{i<=k} E_i / (n - i + 1).
    const double n = static_cast<double>(responsive);
    const double jitter_second =
        rng.exponential(1.0) * config_.jitter_mean_ms / n +
        rng.exponential(1.0) * config_.jitter_mean_ms / (n - 1.0);
    return jitter_second;
  }
  return kNoMeasurement;
}

void PingMesh::ReprobeTally::publish() const {
  static obs::CachedCounter reprobes("mlab.reprobe_rounds");
  static obs::CachedCounter recovered_counter("mlab.reprobe_recovered");
  if (rounds != 0) reprobes.add(rounds);
  if (recovered != 0) recovered_counter.add(recovered);
}

double PingMesh::measure_once(const VantagePoint& vp,
                              const OffnetServer& server) const {
  // Deterministic outages: no probe ever leaves a dark VP and an
  // unresponsive IP never answers, so the retry budget does not apply.
  if (vp_dark(vp.index)) return kNoMeasurement;
  if (ip_unresponsive(server.ip)) return kNoMeasurement;

  ReprobeTally tally;
  const double jitter =
      probe_jitter_ms(server.ip, vp.index, probe_loss(server.isp), tally);
  tally.publish();
  if (std::isnan(jitter)) return kNoMeasurement;

  const FacilityIndex facility =
      ip_split_personality(server.ip) && sees_twin(server.ip, vp.index)
          ? twin_facility(server.ip)
          : server.facility;
  return (route_rtt_ms(vp, facility, server.rack) + ip_offset_ms(server.ip)) +
         jitter;
}

LatencyMatrix PingMesh::measure_isp(const OffnetRegistry& registry,
                                    AsIndex isp) const {
  obs::ScopedTimer timer("mlab.measure_isp_ms");
  LatencyMatrix matrix;
  matrix.server_indices = registry.servers_at(isp);
  matrix.vp_count = vps_.size();
  matrix.ips.reserve(matrix.server_indices.size());
  for (const std::size_t si : matrix.server_indices) {
    matrix.ips.push_back(registry.servers()[si].ip);
  }
  const std::size_t vp_count = matrix.vp_count;
  matrix.rtt.resize(matrix.ips.size() * vp_count, kNoMeasurement);

  // Once per ISP: the VP outage flags and the ISP's probe loss.
  std::vector<char> dark(vp_count);
  for (std::size_t col = 0; col < vp_count; ++col) {
    dark[col] = vp_dark(vps_[col].index) ? 1 : 0;
  }
  const double loss = probe_loss(isp);

  // Once per distinct (facility, rack): the route table, vp_count entries
  // appended to `routes`. Rows keep offsets, not pointers, because later
  // tables grow the vector.
  std::vector<double> routes;
  std::unordered_map<std::uint64_t, std::size_t> route_offset;
  const auto route_table = [&](FacilityIndex facility, int rack) {
    const std::uint64_t key = (std::uint64_t{facility} << 32) |
                              static_cast<std::uint32_t>(rack);
    const auto [it, inserted] = route_offset.try_emplace(key, routes.size());
    if (inserted) {
      for (std::size_t col = 0; col < vp_count; ++col) {
        routes.push_back(route_rtt_ms(vps_[col], facility, rack));
      }
    }
    return it->second;
  };

  ReprobeTally tally;
  for (std::size_t row = 0; row < matrix.server_indices.size(); ++row) {
    const OffnetServer& server = registry.servers()[matrix.server_indices[row]];
    if (ip_unresponsive(server.ip)) continue;
    const bool split = ip_split_personality(server.ip);
    const std::size_t own = route_table(server.facility, server.rack);
    const std::size_t twin =
        split ? route_table(twin_facility(server.ip), server.rack) : own;
    // Both tables exist now; nothing grows `routes` until the next row.
    const double* own_route = routes.data() + own;
    const double* twin_route = routes.data() + twin;
    const double ip_offset = ip_offset_ms(server.ip);
    double* out = matrix.rtt.data() + row * vp_count;
    // Once per cell: only the (VP, IP) probe stream.
    for (std::size_t col = 0; col < vp_count; ++col) {
      if (dark[col] != 0) continue;
      const std::size_t vp_index = vps_[col].index;
      const double jitter = probe_jitter_ms(server.ip, vp_index, loss, tally);
      if (std::isnan(jitter)) continue;
      const double* route =
          split && sees_twin(server.ip, vp_index) ? twin_route : own_route;
      out[col] = (route[col] + ip_offset) + jitter;
    }
  }
  // measure_isp runs on thread-pool workers during the clustering fan-out;
  // like the mlab.reprobe_* counters, these use lock-free cached handles
  // so concurrent per-ISP increments stay exact.
  tally.publish();
  static obs::CachedCounter ips_pinged("mlab.ips_pinged");
  static obs::CachedCounter measurements("mlab.measurements");
  ips_pinged.add(matrix.ips.size());
  measurements.add(matrix.ips.size() * vp_count);
  return matrix;
}

}  // namespace repro
