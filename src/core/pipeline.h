// The end-to-end reproduction pipeline. Owns the generated world and lazily
// builds (and caches) each stage: ground-truth deployments per snapshot,
// discovery reports per snapshot (one per methodology), the ping mesh, the
// per-ISP OPTICS plots (xi-independent) and the clusterings extracted from
// them at any xi, routing, and the traffic models. A snapshot's TLS
// population and scan are not stages: discovery scans once per snapshot
// (the scan builds the population, consumes it and drops it), classifies
// the records with every methodology the snapshot is read with, and drops
// them. Both are interned (tls/certificate.h): one certificate table per
// snapshot plus (ip, cert id, serial) endpoints, so classification matches
// each distinct certificate once per methodology.
//
// Degraded-mode execution: a Pipeline can carry a fault::FaultPlan. The
// plan's pathologies are injected at each stage boundary, every stage
// records a fault::StageHealth (ok / degraded / failed with drop counts and
// reasons) instead of aborting the run, and the accumulated health map is
// published as the "fault" section of run_report.json. With an inactive
// plan every stage output is bit-identical to a Pipeline built without one.
//
// Warm starts: with an artifact store attached (REPRO_STORE=/path, or the
// explicit constructor), the stages a warm pass reads -- scan records per
// snapshot and the clustering stage's one batch of OPTICS plots per world
// -- consult the store before computing and publish after. Both go through
// one private stage primitive (persisted_stage) over the store's
// single-flight load_or_compute; topology and the TLS population are always
// computed (a warm scan never forces its population). A clustering at any
// xi is an in-memory extraction from the plots, so a new xi costs no store
// access. Artifacts are keyed by a digest over the measurement-relevant
// scenario config, the fault plan, and the per-stage parameters, so a warm
// hit is bit-identical to the cold compute (enforced by
// tests/test_store.cpp). A corrupt or stale artifact falls back to
// recompute and records a degraded StageHealth instead of throwing. With no
// store attached (the default) behaviour is bit-identical to before the
// store existed. See docs/PERSISTENCE.md.
//
// One matrix path: the clustering stage measures each ISP's latency matrix
// in memory and plots it (cluster_isps). Nothing spills to disk, so the
// store root holds only the .bin artifacts its byte budget accounts for.
//
// Thread safety: each lazy accessor is one get() on its stage's own
// single-flight cell (SingleFlightLru, unbounded, so a returned reference
// lives as long as the pipeline). The first caller for a key builds outside
// any lock and the rest park on that cell (pipeline.stage_waits); unrelated
// stages build side by side, so a resident service world does not serialize
// a peering study against a discovery. Stages force each other only along
// an acyclic graph (capacity -> demand, registry; plots -> discovery ->
// registry, with the uncached scan and population in between; peering ->
// routing, traceroute tools), so no build ever waits on its own cell.
// Pool workers only *read* stages already computed: the clustering fan-out
// and the peering study's per-target workers run on references their caller
// forced first, as does perfbench's clustering replay. With concurrent
// callers a multi-snapshot stage's health reasons may merge in either
// order. Pipelines of one world share each artifact's compute through the
// store's load_or_compute; those waits cannot cycle (a plot compute waits
// on a scan flight, never the reverse).
//
// Typical use:
//   Pipeline pipeline(Scenario::paper());
//   auto table1 = table1_study(pipeline);            // analyses.h
//   auto table2 = table2_study(pipeline, 0.1);
//
//   Pipeline chaos(Scenario::paper(), fault::FaultPlan::chaos());
//   auto degraded = table1_study(chaos);             // never throws
//   chaos.overall_status();                          // kDegraded
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/colocation.h"
#include "core/scenario.h"
#include "core/single_flight_lru.h"
#include "fault/fault_plan.h"
#include "fault/stage_health.h"
#include "rdns/ptr_store.h"
#include "route/bgp.h"
#include "route/peering_inference.h"
#include "scan/classifier.h"
#include "traffic/spillover.h"

namespace repro::store {
class ArtifactStore;
class ByteReader;
class ByteWriter;
struct ArtifactKey;
}  // namespace repro::store

namespace repro {

/// Identity of a xi in (0, 1) for the clustering cache and the service's
/// render cache: micro-units, exact for config xis like 0.1.
std::uint64_t xi_key(double xi);

class Pipeline {
 public:
  explicit Pipeline(Scenario scenario);
  Pipeline(Scenario scenario, fault::FaultPlan plan);
  /// Pipeline over an explicit artifact store (tests and benchmarks; the
  /// two-argument constructors use store::ArtifactStore::from_env(), i.e.
  /// the REPRO_STORE environment toggles). `artifacts` may be nullptr.
  Pipeline(Scenario scenario, fault::FaultPlan plan,
           std::shared_ptr<store::ArtifactStore> artifacts);

  const Scenario& scenario() const noexcept { return scenario_; }
  const Internet& internet() const noexcept { return internet_; }

  /// The fault plan this pipeline runs under (inactive by default).
  const fault::FaultPlan& fault_plan() const noexcept { return plan_; }

  /// The attached artifact store; nullptr when persistence is off.
  store::ArtifactStore* artifact_store() const noexcept {
    return artifacts_.get();
  }

  /// Digest over (measurement config, fault plan measurement_json); every
  /// persisted artifact key derives from it. Two pipelines with equal world
  /// digests share warm artifacts byte-for-byte -- the identity the
  /// ArtifactResolver (src/serve/) keys residency and reuse on.
  std::uint64_t world_digest() const noexcept { return world_digest_; }

  /// Health of every stage executed so far, keyed by stage name
  /// ("tls_population", "scan", "discovery", "ping_mesh", "clustering",
  /// "rdns", "peering"). Not synchronized with stage builds: read it when
  /// no other thread is forcing a stage of this pipeline.
  const std::map<std::string, fault::StageHealth>& stage_health() const noexcept {
    return health_;
  }

  /// Worst status across all executed stages (kOk before any stage ran).
  fault::StageStatus overall_status() const noexcept {
    return fault::overall_status(health_);
  }

  /// Ground truth (what the measurements must rediscover).
  const OffnetRegistry& registry(Snapshot snapshot) const;

  /// TLS population for a snapshot: its certificate table and its
  /// endpoints in ascending IP order (size() counts endpoints), with cert
  /// faults applied. Uncached: every call rebuilds it and records its
  /// "tls_population" health, and the scan is its only in-pipeline caller.
  TlsEndpoints population(Snapshot snapshot) const;

  /// Scan records for a snapshot, with scan faults applied: the
  /// population's certificate table and the endpoints the scan saw
  /// (size() counts records). Uncached: every call is one store
  /// consult-or-compute (a cold compute scans a fresh population) and
  /// records its "scan" health, and discovery is its only in-pipeline
  /// caller.
  TlsEndpoints scan_records(Snapshot snapshot) const;

  /// Discovery from a snapshot's scan with a methodology. Cached per
  /// snapshot: the first call scans once and classifies the records with
  /// every methodology up to the snapshot's year (2021: the 2021 rules;
  /// 2023: the 2023 rules, then the 2021 rules), recording "discovery"
  /// health once per methodology. The 2021 snapshot with the 2023 rules is
  /// not a Table 1 column and fails a require.
  const DiscoveryReport& discovery(Snapshot snapshot,
                                   Methodology methodology) const;

  /// Vantage points and ping mesh over the 2023 ground truth.
  const VantagePointSet& vantage_points() const;
  const PingMesh& ping_mesh() const;

  /// Clustering of every 2023 offnet-hosting ISP at a given xi (cached per
  /// xi): an in-memory extraction from the world's OPTICS plots, which are
  /// computed or loaded once. Indexed by position in discovery(2023, 2023
  /// methodology) hosting order.
  const std::vector<IspClustering>& clusterings(double xi) const;

  /// Clustering lookup by ISP for a given xi; nullptr if the ISP hosts
  /// nothing (or was not clustered).
  const IspClustering* clustering_of(double xi, AsIndex isp) const;

  /// Routing engine over the world.
  const RoutingEngine& routing() const;

  /// PTR corpus over the 2023 ground truth (cached; the plan's rDNS faults
  /// are folded into the synthesizer exactly once and recorded as the
  /// "rdns" StageHealth).
  const PtrStore& ptr_store() const;

  /// Section 4.2.1 peering evidence for one hypergiant (cached per HG; the
  /// traceroute engine carries the plan's BGP-flap faults, and instability
  /// downgrades are recorded as the "peering" StageHealth).
  const std::map<AsIndex, IspPeeringEvidence>& peering_study(Hypergiant hg) const;

  /// Traffic models over the 2023 ground truth.
  const DemandModel& demand() const;
  const CapacityModel& capacity() const;

  /// ISPs hosting at least one offnet in the 2023 discovery.
  std::vector<AsIndex> hosting_isps_2023() const;

 private:
  /// A persisted stage's compute result: its value and its health.
  template <class T>
  struct StageOutput {
    T value;
    fault::StageHealth health;
  };

  /// The one persisted-stage primitive behind scan and clustering
  /// (pipeline.cpp; docs/PERSISTENCE.md): one artifact per call, holding
  /// the stage's StageHealth, then the value.
  template <class T, class Compute>
  T persisted_stage(const char* stage, const char* span_name,
                    const store::ArtifactKey& key,
                    void (*encode)(store::ByteWriter&, const T&),
                    T (*decode)(store::ByteReader&), Compute&& compute) const;

  /// Classifies a snapshot's scan with one methodology and records its
  /// "discovery" health, counters and gauge.
  DiscoveryReport classify(Snapshot snapshot, Methodology methodology,
                           const TlsEndpoints& records) const;

  /// The world's OPTICS plots, one per 2023 hosting ISP (the clustering
  /// stage's persisted half; cached).
  const std::vector<IspPlot>& plots() const;

  /// Outcome slot of one ISP's clustering fan-out task.
  struct IspOutcome {
    IspPlot plot;
    bool failed = false;
    std::string error;
  };

  /// Runs the per-ISP plot fan-out over the thread pool: each ISP's latency
  /// matrix is measured in memory and plotted. Pure with respect to
  /// pipeline state other than lazily forcing the mesh/registry stages;
  /// records no health (the stage primitive does).
  std::vector<IspOutcome> cluster_isps(const std::vector<AsIndex>& isps) const;

  /// Deterministic ISP-ordered merge of fan-out outcomes into the plots and
  /// their StageHealth.
  StageOutput<std::vector<IspPlot>> merge_isp_outcomes(
      const std::vector<AsIndex>& isps, std::vector<IspOutcome> outcomes) const;

  /// Folds a stage's health record into the map, bumps the fault counters,
  /// and republishes the run-report "fault" section. Thread-safe: stages
  /// that fan work across the thread pool may record health concurrently.
  void record_health(const std::string& stage, fault::StageHealth health) const;

  Scenario scenario_;
  fault::FaultPlan plan_;
  Internet internet_;
  std::shared_ptr<store::ArtifactStore> artifacts_;
  /// Digest over (measurement config, fault plan); every artifact key
  /// derives from it.
  std::uint64_t world_digest_ = 0;

  /// One unbounded single-flight cell per lazy stage, keyed by Snapshot,
  /// Hypergiant, xi_key, or 0 for a per-world stage.
  template <class T>
  struct StageCell : SingleFlightLru<std::shared_ptr<const T>> {
    StageCell()
        : SingleFlightLru<std::shared_ptr<const T>>(
              static_cast<std::size_t>(-1),
              {.inflight_wait = "pipeline.stage_waits"}) {}
  };

  /// The traceroute engine and IXP registry every peering study shares.
  struct PeeringTools;

  mutable std::mutex health_mutex_;
  mutable std::map<std::string, fault::StageHealth> health_;
  mutable StageCell<OffnetRegistry> registries_;
  /// Per snapshot, one report per methodology in classify order.
  mutable StageCell<std::vector<DiscoveryReport>> reports_;
  mutable StageCell<VantagePointSet> vps_;
  mutable StageCell<PingMesh> mesh_;
  mutable StageCell<std::vector<IspPlot>> plots_;
  mutable StageCell<std::vector<IspClustering>> clusterings_;
  mutable StageCell<RoutingEngine> routing_;
  mutable StageCell<PtrStore> ptr_;
  mutable StageCell<PeeringTools> peering_tools_;
  mutable StageCell<std::map<AsIndex, IspPeeringEvidence>> peering_;
  mutable StageCell<DemandModel> demand_;
  mutable StageCell<CapacityModel> capacity_;
};

}  // namespace repro
