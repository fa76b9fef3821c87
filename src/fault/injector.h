// Applies a FaultPlan to concrete pipeline artifacts: scan record streams,
// TLS cert populations, and ping-campaign configuration. All injections are
// stateless-hash driven from the plan seed, so replaying the same plan over
// the same input is bit-for-bit identical, and an inactive plan never
// mutates anything.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault_plan.h"
#include "mlab/ping_mesh.h"
#include "rdns/ptr_store.h"
#include "route/traceroute.h"
#include "tls/certificate.h"

namespace repro::fault {

/// What inject_scan_faults removed.
struct ScanFaultOutcome {
  std::size_t truncated = 0;     // lost with their whole /8 shard
  std::size_t burst_missed = 0;  // lost to an elevated-miss burst
  std::size_t dropped() const noexcept { return truncated + burst_missed; }
};

/// Drops records per the plan's ScanFaults. Preserves order and the
/// certificate table; returns the input unchanged when those faults are
/// inactive.
TlsEndpoints inject_scan_faults(TlsEndpoints records, const FaultPlan& plan,
                                ScanFaultOutcome* outcome = nullptr);

/// What inject_cert_faults rewrote.
struct CertFaultOutcome {
  std::size_t churned = 0;  // re-keyed, names intact
  std::size_t garbled = 0;  // names destroyed -> invisible to classification
};

/// Rewrites certificates per the plan's CertFaults; never adds, removes or
/// reorders an endpoint, and never changes an existing table entry. A
/// churned endpoint gets a new serial and moves to the entry with its
/// names and validity 2023-2026; a garbled endpoint moves to an entry of
/// its own, with a garbled CN and no organization or SANs.
void inject_cert_faults(TlsEndpoints& population, const FaultPlan& plan,
                        CertFaultOutcome* outcome = nullptr);

/// Folds the plan's ping + anycast faults into a PingConfig: vantage-point
/// outages, ICMP storms, extra unresponsive IPs, and extra impossible-IP
/// (split-personality) artifacts. No-op for an inactive plan.
void apply_ping_faults(PingConfig& config, const FaultPlan& plan);

/// Folds the plan's BGP flap faults into a TracerouteConfig. No-op when
/// route faults are inactive, so the engine stays bit-identical.
void apply_route_faults(TracerouteConfig& config, const FaultPlan& plan);

/// Folds the plan's PTR-record faults into a PtrConfig. No-op when rdns
/// faults are inactive, so the synthesized corpus stays bit-identical.
void apply_rdns_faults(PtrConfig& config, const FaultPlan& plan);

}  // namespace repro::fault
