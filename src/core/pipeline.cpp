#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "fault/injector.h"
#include "hypergiant/profile.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "store/artifact_store.h"
#include "store/serde.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace repro {

std::uint64_t xi_key(double xi) {
  require(xi > 0.0 && xi < 1.0, "Pipeline: xi outside (0, 1)");
  return static_cast<std::uint64_t>(std::llround(xi * 1e6));
}

namespace {

std::string hg_counter_name(std::string_view prefix, Hypergiant hg) {
  return std::string(prefix) + "." + std::string(to_string(hg));
}

std::string count_reason(const char* what, std::uint64_t dropped,
                         std::uint64_t total) {
  return std::string(what) + ": " + std::to_string(dropped) + "/" +
         std::to_string(total);
}

/// Content-addressed key for one artifact: the world digest (measurement
/// config + fault plan) refined by the artifact type, its schema version
/// and per-artifact parameters (a scan's snapshot ordinal).
store::ArtifactKey make_key(const char* type, std::uint32_t schema,
                            std::uint64_t world,
                            std::initializer_list<std::uint64_t> params) {
  store::Fnv1a h;
  h.mix(world).mix(std::string_view(type)).mix(schema);
  for (const std::uint64_t param : params) h.mix(param);
  return store::ArtifactKey{type, schema, h.digest()};
}

/// Folds a corrupt-artifact event into a stage's health: the output is
/// recomputed and correct, but the run is flagged degraded so the operator
/// knows persistence failed it (docs/PERSISTENCE.md).
void note_store_corruption(fault::StageHealth& health, const std::string& detail) {
  health.status = std::max(health.status, fault::StageStatus::kDegraded);
  health.reasons.push_back("store: " + detail);
}

std::uint64_t cell_key(Snapshot snapshot) {
  return static_cast<std::uint64_t>(snapshot);
}

/// The rules a snapshot's discovery classifies its scan with, in order: its
/// own year's, then each older year's (Table 1's 2023-scan/2021-rules
/// column). No snapshot is classified with rules newer than itself.
std::vector<Methodology> methodologies_for(Snapshot snapshot) {
  if (snapshot == Snapshot::k2021) return {Methodology::k2021};
  return {Methodology::k2023, Methodology::k2021};
}

}  // namespace

struct Pipeline::PeeringTools {
  TracerouteEngine traceroute;
  IxpRegistry ixps;
};

Pipeline::Pipeline(Scenario scenario)
    : Pipeline(std::move(scenario), fault::FaultPlan::none()) {}

Pipeline::Pipeline(Scenario scenario, fault::FaultPlan plan)
    : Pipeline(std::move(scenario), plan, store::ArtifactStore::from_env()) {}

Pipeline::Pipeline(Scenario scenario, fault::FaultPlan plan,
                   std::shared_ptr<store::ArtifactStore> artifacts)
    : scenario_(std::move(scenario)),
      plan_(plan),
      artifacts_(std::move(artifacts)) {
  // Ping-campaign, route and rDNS faults live in the measurement models
  // themselves, so fold them into the configs before any engine is built.
  fault::apply_ping_faults(scenario_.ping, plan_);
  fault::apply_route_faults(scenario_.traceroute, plan_);
  fault::apply_rdns_faults(scenario_.ptr, plan_);

  // The measurement-fault JSON covers every rate that can change artifact
  // bytes plus the fault seed, so two pipelines share artifacts exactly
  // when both the measurement config and the injected measurement
  // pathologies agree. Store chaos is deliberately outside the digest: it
  // garbles persisted bytes without changing what a clean compute produces,
  // which is exactly what lets a chaos run corrupt -- and then heal -- a
  // clean baseline's warm artifacts.
  world_digest_ = store::Fnv1a()
                      .mix(measurement_digest(scenario_))
                      .mix(plan_.measurement_json())
                      .digest();

  // Arm (or, at a zero rate, disarm) live store corruption before the first
  // load. Always called so a store shared across sweep runs never carries a
  // previous pipeline's chaos knobs.
  if (artifacts_ != nullptr) {
    store::StoreChaos chaos;
    chaos.seed = plan_.seed;
    chaos.corrupt_rate = plan_.store.corrupt_rate;
    chaos.truncate_fraction = plan_.store.truncate_fraction;
    artifacts_->set_chaos(chaos);
  }

  {
    obs::ScopedSpan span("pipeline.generate_internet");
    internet_ = InternetGenerator(scenario_.topology).generate();
  }
  obs::metrics().gauge("topology.metros").set(
      static_cast<double>(internet_.metros.size()));
  obs::metrics().gauge("topology.facilities").set(
      static_cast<double>(internet_.facilities.size()));
  obs::metrics().gauge("topology.ases").set(
      static_cast<double>(internet_.ases.size()));
  obs::metrics().gauge("topology.links").set(
      static_cast<double>(internet_.links.size()));
}

void Pipeline::record_health(const std::string& stage,
                             fault::StageHealth health) const {
  if (health.status == fault::StageStatus::kFailed) {
    obs::metrics().counter("fault.stage_failures").add(1);
  }
  // Guarded: a stage running on pool workers may record health while
  // another stage (or a concurrent pipeline user) does the same.
  std::lock_guard<std::mutex> lock(health_mutex_);
  const auto [it, inserted] = health_.try_emplace(stage, health);
  if (!inserted) it->second.merge(health);
  obs::set_report_section(
      "fault", fault::fault_section_json(plan_.to_json(), health_));
}

/// Consults the store through its single-flight load_or_compute. A hit
/// that decodes replays its embedded health; otherwise this caller computes
/// and publishes. Either way, corruption this caller ran into is noted.
template <class T, class Compute>
T Pipeline::persisted_stage(const char* stage, const char* span_name,
                            const store::ArtifactKey& key,
                            void (*encode)(store::ByteWriter&, const T&),
                            T (*decode)(store::ByteReader&),
                            Compute&& compute) const {
  obs::ScopedSpan span(span_name);
  std::optional<StageOutput<T>> out;
  std::string corruption;
  if (artifacts_ == nullptr) {
    out.emplace(compute());
  } else {
    const store::FetchResult fetched = artifacts_->load_or_compute(
        key,
        [&] {
          out.emplace(compute());
          // The artifact carries the health a clean cold run earns, not
          // this run's store stigma. A failed stage publishes nothing, so
          // the next run retries it.
          if (out->health.status == fault::StageStatus::kFailed) {
            return std::vector<std::uint8_t>{};
          }
          store::ByteWriter writer;
          store::encode(writer, out->health);
          encode(writer, out->value);
          return writer.take();
        },
        [&](std::span<const std::uint8_t> payload) {
          store::ByteReader reader(payload);
          StageOutput<T> loaded;
          loaded.health = store::decode_stage_health(reader);
          loaded.value = decode(reader);
          out.emplace(std::move(loaded));
        });
    if (fetched.recovered_corrupt) corruption = fetched.load.detail;
  }
  if (!corruption.empty()) note_store_corruption(out->health, corruption);
  record_health(stage, std::move(out->health));
  return std::move(out->value);
}

const OffnetRegistry& Pipeline::registry(Snapshot snapshot) const {
  return *registries_.get(cell_key(snapshot), [&] {
    obs::ScopedSpan span("pipeline.deploy_registry");
    const DeploymentPolicy policy(internet_, scenario_.deployment);
    auto reg = std::make_shared<const OffnetRegistry>(policy.deploy(snapshot));
    obs::metrics().counter("deploy.offnet_servers").add(reg->servers().size());
    return reg;
  });
}

TlsEndpoints Pipeline::population(Snapshot snapshot) const {
  obs::ScopedSpan span("pipeline.tls_population");
  fault::StageHealth health;
  TlsEndpoints endpoints;
  try {
    endpoints = build_tls_population(internet_, registry(snapshot), snapshot,
                                     scenario_.population);
    health.total = endpoints.size();
    if (plan_.active()) {
      fault::CertFaultOutcome outcome;
      fault::inject_cert_faults(endpoints, plan_, &outcome);
      obs::metrics().counter("fault.cert_churned").add(outcome.churned);
      obs::metrics().counter("fault.cert_garbled").add(outcome.garbled);
      health.dropped = outcome.garbled;
      // Churn re-keys a cert (serial, validity) and leaves its names, so
      // the fingerprints absorb it; only garbled names degrade the stage.
      if (outcome.garbled > 0) {
        health.status = fault::StageStatus::kDegraded;
        health.reasons.push_back(
            count_reason("certs garbled", outcome.garbled, health.total));
        health.reasons.push_back(
            count_reason("certs churned", outcome.churned, health.total));
      }
    }
  } catch (const Error& error) {
    health.status = fault::StageStatus::kFailed;
    health.reasons.push_back(std::string("tls_population: ") + error.what());
    endpoints = {};
  }
  record_health("tls_population", std::move(health));
  return endpoints;
}

TlsEndpoints Pipeline::scan_records(Snapshot snapshot) const {
  return persisted_stage(
      "scan", "pipeline.scan",
      make_key("scan", store::kScanRecordsSchema, world_digest_,
               {static_cast<std::uint64_t>(snapshot)}),
      store::encode, store::decode_scan_records, [&] {
        StageOutput<TlsEndpoints> out;
        fault::StageHealth& health = out.health;
        TlsEndpoints& records = out.value;
        try {
          TlsEndpoints endpoints = population(snapshot);
          health.total = endpoints.size();
          const Scanner scanner(scenario_.scanner);
          records = scanner.scan(std::move(endpoints));
          if (plan_.active()) {
            fault::ScanFaultOutcome outcome;
            records =
                fault::inject_scan_faults(std::move(records), plan_, &outcome);
            obs::metrics().counter("fault.scan_truncated")
                .add(outcome.truncated);
            obs::metrics().counter("fault.scan_burst_missed")
                .add(outcome.burst_missed);
            health.dropped = outcome.dropped();
            if (outcome.dropped() > 0) {
              health.status = fault::StageStatus::kDegraded;
              health.reasons.push_back(
                  count_reason("records lost to shard truncation",
                               outcome.truncated, health.total));
              health.reasons.push_back(
                  count_reason("records lost to miss bursts",
                               outcome.burst_missed, health.total));
            }
          }
        } catch (const Error& error) {
          health.status = fault::StageStatus::kFailed;
          health.reasons.push_back(std::string("scan: ") + error.what());
          records = {};
        }
        return out;
      });
}

const DiscoveryReport& Pipeline::discovery(Snapshot snapshot,
                                           Methodology methodology) const {
  require(static_cast<int>(methodology) <= static_cast<int>(snapshot),
          "Pipeline::discovery: a snapshot is never classified with rules "
          "newer than itself");
  const std::vector<DiscoveryReport>& reports =
      *reports_.get(cell_key(snapshot), [&] {
        obs::ScopedSpan span("pipeline.discovery");
        // The scan lives only as long as this build: every methodology
        // classifies it, then it is dropped. (A failed scan records its
        // own health and yields no records.)
        const TlsEndpoints records = scan_records(snapshot);
        std::vector<DiscoveryReport> built;
        for (const Methodology rules : methodologies_for(snapshot)) {
          built.push_back(classify(snapshot, rules, records));
        }
        return std::make_shared<const std::vector<DiscoveryReport>>(
            std::move(built));
      });
  return *std::ranges::find(reports, methodology,
                            &DiscoveryReport::methodology);
}

DiscoveryReport Pipeline::classify(Snapshot snapshot, Methodology methodology,
                                   const TlsEndpoints& records) const {
  fault::StageHealth health;
  health.total = records.size();
  DiscoveryReport report;
  try {
    const OffnetClassifier classifier(internet_, methodology);
    report = classifier.classify(records);
    if (report.total_offnet_ips() == 0 &&
        registry(snapshot).server_count() > 0) {
      // Quality gate: the ground truth deployed offnets but discovery came
      // back empty -- downstream studies would silently report nothing.
      health.status = fault::StageStatus::kFailed;
      health.reasons.push_back("no offnet IPs discovered");
    }
  } catch (const Error& error) {
    health.status = fault::StageStatus::kFailed;
    health.reasons.push_back(std::string("discovery: ") + error.what());
    report = DiscoveryReport();
    report.methodology = methodology;
  }

  for (const auto& footprint : report.footprints) {
    obs::metrics()
        .counter(hg_counter_name("discovery.offnet_ips", footprint.hg))
        .add(footprint.ip_count());
  }
  obs::metrics().counter("discovery.offnet_ips_total")
      .add(report.total_offnet_ips());
  obs::metrics().gauge("discovery.hosting_isps").set(
      static_cast<double>(report.isps_hosting_at_least(1).size()));
  record_health("discovery", health);
  return report;
}

const VantagePointSet& Pipeline::vantage_points() const {
  return *vps_.get(0, [&] {
    obs::ScopedSpan span("pipeline.vantage_points");
    auto vps = std::make_shared<const VantagePointSet>(
        internet_, scenario_.vantage_points, scenario_.vantage_seed);
    obs::metrics().gauge("mlab.vantage_points").set(
        static_cast<double>(vps->size()));
    return vps;
  });
}

const PingMesh& Pipeline::ping_mesh() const {
  return *mesh_.get(0, [&] {
    obs::ScopedSpan span("pipeline.ping_mesh");
    const VantagePointSet& vps = vantage_points();
    auto mesh =
        std::make_shared<const PingMesh>(internet_, vps, scenario_.ping);

    fault::StageHealth health;
    health.total = vps.size();
    for (std::size_t vp = 0; vp < vps.size(); ++vp) {
      if (mesh->vp_dark(vp)) ++health.dropped;
    }
    obs::metrics().counter("fault.vps_dark").add(health.dropped);
    if (health.dropped > 0) {
      health.status = fault::StageStatus::kDegraded;
      health.reasons.push_back(
          count_reason("vantage points dark", health.dropped, health.total));
    }
    if (scenario_.ping.icmp_storm_isp_rate > 0.0) {
      std::uint64_t storming = 0;
      for (const AsIndex isp : registry(Snapshot::k2023).hosting_isps()) {
        if (mesh->isp_storm_limited(isp)) ++storming;
      }
      if (storming > 0) {
        health.status = std::max(health.status, fault::StageStatus::kDegraded);
        health.reasons.push_back(
            std::to_string(storming) +
            " hosting ISPs under ICMP rate-limit storms");
      }
    }
    record_health("ping_mesh", health);
    return mesh;
  });
}

std::vector<AsIndex> Pipeline::hosting_isps_2023() const {
  return discovery(Snapshot::k2023, Methodology::k2023).isps_hosting_at_least(1);
}

const std::vector<IspPlot>& Pipeline::plots() const {
  return *plots_.get(0, [&] {
    return std::make_shared<const std::vector<IspPlot>>(persisted_stage(
        "clustering", "pipeline.clustering",
        make_key("plot", store::kPlotSchema, world_digest_, {}), store::encode,
        store::decode_plots, [&] {
          const std::vector<AsIndex> isps = hosting_isps_2023();
          return merge_isp_outcomes(isps, cluster_isps(isps));
        }));
  });
}

const std::vector<IspClustering>& Pipeline::clusterings(double xi) const {
  return *clusterings_.get(xi_key(xi), [&] {
    const std::vector<IspPlot>& all = plots();
    const std::size_t min_pts = ColocationConfig().min_pts;
    std::vector<IspClustering> extracted;
    extracted.reserve(all.size());
    for (const IspPlot& plot : all) {
      extracted.push_back(extract_at_xi(plot, min_pts, xi));
    }
    return std::make_shared<const std::vector<IspClustering>>(
        std::move(extracted));
  });
}

std::vector<Pipeline::IspOutcome> Pipeline::cluster_isps(
    const std::vector<AsIndex>& isps) const {
  ColocationConfig config;
  config.filter = scenario_.filter;
  const OffnetRegistry& reg = registry(Snapshot::k2023);
  const PingMesh& mesh = ping_mesh();
  const ColocationClusterer clusterer(reg, mesh, vantage_points(), config);

  // Fan the per-ISP plots across the thread pool. Each ISP's outcome lands
  // in its own preallocated slot, and the health/result merge walks the
  // slots in ISP order on one thread, so results, health records and
  // counters are bit-identical to the serial loop for any thread count and
  // any dispatch order. ISPs go out one at a time, largest first: the
  // distance kernel grows with the square of an ISP's server count, so the
  // biggest matrices start early instead of ending the stage alone.
  std::vector<IspOutcome> outcomes(isps.size());
  const std::size_t threads =
      std::min(default_thread_count(), std::max<std::size_t>(isps.size(), 1));
  obs::metrics().gauge("cluster.threads").set(static_cast<double>(threads));
  obs::metrics().gauge("cluster.tasks").set(static_cast<double>(isps.size()));
  std::vector<std::size_t> servers;
  servers.reserve(isps.size());
  for (const AsIndex isp : isps) servers.push_back(reg.servers_at(isp).size());
  const std::vector<std::size_t> order = largest_first(servers);
  parallel_for(
      isps.size(),
      [&](std::size_t k) {
        // The spans ride the task-context propagation in the pool, so they
        // render under pipeline.clustering in the exported trace instead of
        // as orphan roots.
        const std::size_t i = order[k];
        obs::ScopedSpan isp_span("cluster.isp");
        obs::ScopedTimer timer("cluster.isp_wall_ms");
        IspOutcome& out = outcomes[i];
        try {
          out.plot = clusterer.plot(isps[i], mesh.measure_isp(reg, isps[i]));
        } catch (const Error& error) {
          // Quality gate: one pathological ISP matrix must not abort the
          // other few thousand -- keep an unusable placeholder, move on.
          out.failed = true;
          out.error = error.what();
          out.plot = IspPlot();
          out.plot.isp = isps[i];
        }
        obs::metrics().counter("cluster.isps_clustered").add(1);
      },
      threads);
  return outcomes;
}

Pipeline::StageOutput<std::vector<IspPlot>> Pipeline::merge_isp_outcomes(
    const std::vector<AsIndex>& isps, std::vector<IspOutcome> outcomes) const {
  require(outcomes.size() == isps.size(),
          "merge_isp_outcomes: outcome count mismatch");

  // Deterministic, ISP-ordered merge on the calling thread.
  StageOutput<std::vector<IspPlot>> merged;
  fault::StageHealth& health = merged.health;
  merged.value.reserve(isps.size());
  std::uint64_t failed_isps = 0;
  for (std::size_t i = 0; i < isps.size(); ++i) {
    ++health.total;
    IspOutcome& out = outcomes[i];
    if (out.failed) {
      ++failed_isps;
      if (health.reasons.empty() ||
          health.reasons.back().find("clustering error") == std::string::npos) {
        health.reasons.push_back(std::string("clustering error: ") + out.error);
      }
    }
    if (!out.plot.usable) ++health.dropped;
    merged.value.push_back(std::move(out.plot));
  }

  if (health.total > 0 && health.dropped == health.total) {
    health.status = fault::StageStatus::kFailed;
    health.reasons.push_back("no ISP passed the usable-sites filter");
  } else if (failed_isps > 0 || (plan_.active() && health.dropped > 0)) {
    health.status = fault::StageStatus::kDegraded;
    if (health.dropped > 0) {
      health.reasons.push_back(count_reason(
          "ISPs below the usable-sites filter", health.dropped, health.total));
    }
  }
  return merged;
}

const IspClustering* Pipeline::clustering_of(double xi, AsIndex isp) const {
  // Clusterings sit in hosting-ISP order, which is ascending, and a cached
  // extraction is never replaced.
  const std::vector<IspClustering>& all = clusterings(xi);
  const auto it = std::ranges::lower_bound(all, isp, {}, &IspClustering::isp);
  return it != all.end() && it->isp == isp ? &*it : nullptr;
}

const RoutingEngine& Pipeline::routing() const {
  return *routing_.get(0, [&] {
    obs::ScopedSpan span("pipeline.routing");
    return std::make_shared<const RoutingEngine>(internet_);
  });
}

const PtrStore& Pipeline::ptr_store() const {
  return *ptr_.get(0, [&] {
    obs::ScopedSpan span("pipeline.ptr_store");
    const OffnetRegistry& reg = registry(Snapshot::k2023);
    PtrFaultCounts counts;
    auto ptr = std::make_shared<const PtrStore>(
        PtrStore::build(internet_, reg, scenario_.ptr, &counts));
    fault::StageHealth health;
    health.total = reg.server_count();
    health.dropped = counts.missing;
    if (counts.total() > 0) {
      health.status = fault::StageStatus::kDegraded;
      health.reasons.push_back(
          count_reason("PTR records withdrawn", counts.missing, health.total));
      health.reasons.push_back(
          count_reason("PTR records stale", counts.stale, health.total));
      health.reasons.push_back(
          count_reason("PTR records garbled", counts.garbled, health.total));
    }
    record_health("rdns", health);
    return ptr;
  });
}

const std::map<AsIndex, IspPeeringEvidence>& Pipeline::peering_study(
    Hypergiant hg) const {
  return *peering_.get(static_cast<std::uint64_t>(hg), [&] {
    obs::ScopedSpan span("pipeline.peering_study");
    // The engine carries the plan's BGP-flap knobs (folded into
    // scenario_.traceroute by the constructor); the tools are shared across
    // hypergiants.
    const PeeringTools& tools = *peering_tools_.get(0, [&] {
      return std::make_shared<const PeeringTools>(
          PeeringTools{TracerouteEngine(internet_, scenario_.traceroute),
                       IxpRegistry::build(internet_, scenario_.ixp)});
    });
    const PeeringStudy study(internet_, tools.traceroute, tools.ixps,
                             scenario_.peering);
    const AsIndex hg_as = internet_.as_by_asn(profile(hg).asn);
    const std::vector<AsIndex> targets = internet_.access_isps();
    PeeringStudyOutcome outcome;
    auto evidence =
        std::make_shared<const std::map<AsIndex, IspPeeringEvidence>>(
            study.run(hg_as, targets, routing(), &outcome));

    fault::StageHealth health;
    health.total = outcome.targets;
    if (outcome.unstable_targets > 0) {
      health.status = fault::StageStatus::kDegraded;
      health.reasons.push_back(count_reason("targets with unstable paths",
                                            outcome.unstable_targets,
                                            outcome.targets));
      health.reasons.push_back(count_reason("peer verdicts downgraded",
                                            outcome.downgraded_peers,
                                            outcome.targets));
    }
    record_health("peering", health);
    return evidence;
  });
}

const DemandModel& Pipeline::demand() const {
  return *demand_.get(0, [&] {
    obs::ScopedSpan span("pipeline.demand");
    return std::make_shared<const DemandModel>(internet_);
  });
}

const CapacityModel& Pipeline::capacity() const {
  return *capacity_.get(0, [&] {
    obs::ScopedSpan span("pipeline.capacity");
    return std::make_shared<const CapacityModel>(
        internet_, registry(Snapshot::k2023), demand(), scenario_.capacity);
  });
}

}  // namespace repro
