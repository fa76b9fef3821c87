// Latency measurement simulation (Appendix A of the paper): ping every
// offnet IP from every vantage point with 8 probes and keep the second
// smallest RTT.
//
// RTT model per (vantage point, server):
//   rtt = great-circle propagation * path inflation
//       + per-(VP, facility) path offset   <- separates facilities: servers
//                                             in different buildings take
//                                             different upstream paths
//       + per-(VP, rack) offset (small)    <- servers behind different
//                                             top-of-rack switches/uplinks;
//                                             this is what makes xi = 0.1
//                                             conservative (it splits racks)
//                                             while xi = 0.9 merges a
//                                             facility into one cluster
//       + per-IP offset (tiny)             <- NIC/stack variation
//       + queueing jitter (per probe)      <- what the 2nd-of-8 suppresses
//
// Only the last two terms depend on the IP, so measure_isp works on three
// levels per ISP:
//   * once per ISP: the dark-VP flags and the ISP's probe loss;
//   * once per distinct (facility, rack) the rows use (a split-personality
//     row also uses its twin facility's): a route table of vp_count doubles,
//     table[col] = light * inflation + facility_offset + rack_offset, all
//     tables back to back in one vector that rows address by offset;
//   * once per cell: the per-(VP, IP) probe stream (RNG seed, binomial
//     probe count, two exponential jitters, retry rounds), and
//     rtt = (table[col] + ip_offset) + jitter.
// Summation-order contract: the sum is evaluated left to right exactly as
// the model above lists it, and table[col] is its first three terms, so
// the hoisted path is bit-identical to measure_once (the build targets no
// FMA instruction set, so nothing contracts). Reassociating any of these
// sums changes the artifacts.
//
// Pathologies injected to exercise the paper's filters:
//   * unresponsive IPs (the paper discards 12K of 261K),
//   * "impossible" IPs whose probes answer from two different locations
//     (anycast/NAT artifacts; the paper discards 1.9K via speed-of-light),
//   * ICMP-rate-limited ISPs whose measurements mostly fail (the paper
//     keeps only ISPs with >= 100 fully-responsive vantage points).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "hypergiant/deployment.h"
#include "mlab/vantage_points.h"

namespace repro {

/// NaN marker for a failed measurement.
inline constexpr double kNoMeasurement = std::numeric_limits<double>::quiet_NaN();

struct PingConfig {
  std::uint64_t seed = 5150;
  int probes = 8;

  /// Path-inflation multiplier range applied to the speed-of-light RTT.
  double inflation_min = 1.25;
  double inflation_max = 1.9;

  /// Mean of the per-(VP, facility) exponential path offset (ms). This is
  /// the signal that lets OPTICS separate facilities in the same metro.
  double facility_offset_mean_ms = 4.0;

  /// Mean of the per-(VP, rack) exponential offset (ms): sub-facility
  /// structure that the conservative xi splits on.
  double rack_offset_mean_ms = 0.7;

  /// Half-width of the per-IP deterministic offset (ms).
  double per_ip_offset_ms = 0.05;

  /// Mean queueing jitter per probe (ms, exponential).
  double jitter_mean_ms = 1.0;

  /// Per-probe loss probability under normal conditions.
  double probe_loss = 0.02;

  /// Fraction of offnet IPs that never answer pings.
  double unresponsive_ip_rate = 0.046;

  /// Fraction of offnet IPs that answer from two locations (impossible-
  /// latency injection).
  double split_personality_rate = 0.0073;

  /// Fraction of ISPs that rate-limit ICMP so aggressively that most
  /// measurements fail (these ISPs fall below the 100-VP threshold).
  double icmp_limited_isp_rate = 0.06;
  double icmp_limited_failure = 0.65;

  // --- degraded-mode knobs (all off by default, so the paper behaviour is
  // --- bit-identical; a FaultPlan fills them in via fault::apply_ping_faults,
  // --- see docs/ROBUSTNESS.md) ---

  /// Extra salt for the fault pathologies below, so two fault plans over
  /// the same measurement seed draw independent outage/storm sets.
  std::uint64_t fault_seed = 0;

  /// Fraction of vantage points that are completely dark (site outage for
  /// the whole campaign).
  double vp_outage_rate = 0.0;

  /// Extra fraction of ISPs under an ICMP rate-limit storm, and the
  /// per-probe failure probability while storming.
  double icmp_storm_isp_rate = 0.0;
  double icmp_storm_failure = 0.9;

  /// Re-probe rounds for a (VP, IP) measurement whose probes failed
  /// transiently (fewer than 2 of `probes` answered). 0 reproduces the
  /// paper's single 8-probe round. Unresponsive IPs and dark VPs are
  /// deterministic outages and are never retried.
  int retry_budget = 0;
};

/// Row-major latency matrix for one ISP: rows = offnet IPs, cols = VPs.
struct LatencyMatrix {
  std::vector<Ipv4> ips;                    // row keys
  std::vector<std::size_t> server_indices;  // registry indices, same order
  std::size_t vp_count = 0;
  std::vector<double> rtt;                  // ips.size() x vp_count, NaN = fail

  double at(std::size_t row, std::size_t col) const {
    return rtt[row * vp_count + col];
  }
  std::size_t row_count() const noexcept { return ips.size(); }
};

/// Read-only row-wise view of one ISP's latency matrix, decoupling the
/// cleaning layer from where the bytes live: an in-memory LatencyMatrix
/// (LatencyMatrixRows below) or a memory-mapped .mmx spill
/// (store::MappedLatencyMatrix). The Pipeline only ever passes in-memory
/// matrices; the spill view is left for perfbench's clustering replay
/// (docs/SCALING.md). Implementations must be safe for concurrent const
/// access: the block-streamed pairwise pass reads rows from several pool
/// workers at once.
class LatencyRows {
 public:
  virtual ~LatencyRows() = default;
  virtual std::size_t row_count() const noexcept = 0;
  virtual std::size_t vp_count() const noexcept = 0;
  virtual Ipv4 ip(std::size_t row) const = 0;
  virtual std::size_t server_index(std::size_t row) const = 0;
  /// Pointer to the row's vp_count contiguous RTTs (NaN = failed probe).
  virtual const double* row(std::size_t row) const = 0;
};

/// LatencyRows over an in-memory LatencyMatrix (non-owning).
class LatencyMatrixRows final : public LatencyRows {
 public:
  explicit LatencyMatrixRows(const LatencyMatrix& matrix) noexcept
      : matrix_(&matrix) {}
  std::size_t row_count() const noexcept override {
    return matrix_->row_count();
  }
  std::size_t vp_count() const noexcept override { return matrix_->vp_count; }
  Ipv4 ip(std::size_t row) const override { return matrix_->ips[row]; }
  std::size_t server_index(std::size_t row) const override {
    return matrix_->server_indices[row];
  }
  const double* row(std::size_t row) const override {
    return matrix_->rtt.data() + row * matrix_->vp_count;
  }

 private:
  const LatencyMatrix* matrix_;
};

/// Simulates the M-Lab ping campaign.
class PingMesh {
 public:
  PingMesh(const Internet& internet, const VantagePointSet& vps,
           PingConfig config);

  /// Measures all offnet servers of one ISP from every vantage point.
  LatencyMatrix measure_isp(const OffnetRegistry& registry, AsIndex isp) const;

  /// One (vp, server) measurement: second-smallest of `probes` RTT samples;
  /// NaN if fewer than two probes succeed or the IP is unresponsive. The
  /// single-cell reference: every cell of measure_isp equals it bit for bit.
  double measure_once(const VantagePoint& vp, const OffnetServer& server) const;

  /// Ground-truth pathology queries (tests and the appendix stats use them).
  bool ip_unresponsive(Ipv4 ip) const noexcept;
  bool ip_split_personality(Ipv4 ip) const noexcept;
  bool isp_icmp_limited(AsIndex isp) const noexcept;

  /// Injected-fault queries (false whenever the matching rate is zero).
  bool vp_dark(std::size_t vp_index) const noexcept;
  bool isp_storm_limited(AsIndex isp) const noexcept;

  const PingConfig& config() const noexcept { return config_; }

 private:
  /// Re-probe outcomes of one or more cells, added to the mlab.reprobe_*
  /// counters in one step (per cell in measure_once, per ISP in measure_isp).
  struct ReprobeTally {
    std::uint64_t rounds = 0;
    std::uint64_t recovered = 0;
    void publish() const;
  };

  double probe_loss(AsIndex isp) const noexcept;
  /// The IP-independent part of the base RTT: light * inflation +
  /// facility_offset + rack_offset, summed left to right.
  double route_rtt_ms(const VantagePoint& vp, FacilityIndex facility,
                      int rack) const;
  double ip_offset_ms(Ipv4 ip) const noexcept;
  /// Whether a split-personality IP answers this VP from its twin facility.
  bool sees_twin(Ipv4 ip, std::size_t vp_index) const noexcept;
  FacilityIndex twin_facility(Ipv4 ip) const noexcept;
  /// The per-(VP, IP) probe stream with its retry rounds: the second-
  /// smallest queueing jitter, or NaN if no round had two answers.
  double probe_jitter_ms(Ipv4 ip, std::size_t vp_index, double loss,
                         ReprobeTally& tally) const;

  const Internet& internet_;
  const VantagePointSet& vps_;
  PingConfig config_;
  std::uint64_t probe_seed_ = 0;
  std::vector<std::uint64_t> round_salts_;  // [0] = 0: the paper's stream
};

}  // namespace repro
