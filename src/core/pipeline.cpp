#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>

#include "fault/injector.h"
#include "hypergiant/profile.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "store/artifact_store.h"
#include "store/matrix_file.h"
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
/// and per-artifact parameters (a scan's snapshot ordinal, a spill's ISP).
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

}  // namespace

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

  // Streamed matrices need a spill directory. Anchor it under a writable
  // store (spills then persist as a rebuildable warm cache next to the .bin
  // artifacts); otherwise use a private temp directory torn down with the
  // pipeline. If neither can be created, streaming quietly degrades to the
  // in-memory path -- the outputs are bit-identical either way.
  if (scenario_.stream_matrices) {
    namespace fs = std::filesystem;
    if (artifacts_ != nullptr && !artifacts_->config().read_only) {
      std::error_code ec;
      const std::string dir = artifacts_->config().root + "/stream";
      fs::create_directories(dir, ec);
      if (!ec) stream_dir_ = dir;
    }
    if (stream_dir_.empty()) {
      std::error_code ec;
      std::string tmpl =
          (fs::temp_directory_path(ec) / "repro-stream-XXXXXX").string();
      if (!ec && ::mkdtemp(tmpl.data()) != nullptr) {
        stream_dir_ = tmpl;
        owns_stream_dir_ = true;
      }
    }
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

Pipeline::~Pipeline() {
  if (owns_stream_dir_ && !stream_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(stream_dir_, ec);
  }
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
  if (!out->store_note.empty()) {
    note_store_corruption(out->health, out->store_note);
  }
  if (!corruption.empty()) note_store_corruption(out->health, corruption);
  record_health(stage, std::move(out->health));
  return std::move(out->value);
}

const OffnetRegistry& Pipeline::registry(Snapshot snapshot) const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  const auto it = registries_.find(snapshot);
  if (it != registries_.end()) return it->second;
  obs::ScopedSpan span("pipeline.deploy_registry");
  const DeploymentPolicy policy(internet_, scenario_.deployment);
  const OffnetRegistry& reg =
      registries_.emplace(snapshot, policy.deploy(snapshot)).first->second;
  obs::metrics().counter("deploy.offnet_servers").add(reg.servers().size());
  return reg;
}

const CertStore& Pipeline::population(Snapshot snapshot) const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  const auto it = populations_.find(snapshot);
  if (it != populations_.end()) {
    // In-process memoization, distinct from a store warm hit (store.hit).
    obs::metrics().counter("pipeline.population_cache_hit").add(1);
    return it->second;
  }

  obs::ScopedSpan span("pipeline.tls_population");
  fault::StageHealth health;
  CertStore store;
  try {
    store = build_tls_population(internet_, registry(snapshot), snapshot,
                                 scenario_.population);
    health.total = store.size();
    if (plan_.active()) {
      fault::CertFaultOutcome outcome;
      fault::inject_cert_faults(store, plan_, &outcome);
      obs::metrics().counter("fault.cert_churned").add(outcome.churned);
      obs::metrics().counter("fault.cert_garbled").add(outcome.garbled);
      health.dropped = outcome.garbled;
      if (outcome.churned + outcome.garbled > 0) {
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
    store = CertStore();
  }
  record_health("tls_population", std::move(health));
  return populations_.emplace(snapshot, std::move(store)).first->second;
}

const std::vector<ScanRecord>& Pipeline::scan_records(Snapshot snapshot) const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  const auto it = scans_.find(snapshot);
  if (it != scans_.end()) {
    // In-process memoization, distinct from a store warm hit (store.hit).
    obs::metrics().counter("pipeline.scan_cache_hit").add(1);
    return it->second;
  }

  std::vector<ScanRecord> computed = persisted_stage(
      "scan", "pipeline.scan",
      make_key("scan", store::kScanRecordsSchema, world_digest_,
               {static_cast<std::uint64_t>(snapshot)}),
      store::encode, store::decode_scan_records, [&] {
        StageOutput<std::vector<ScanRecord>> out;
        fault::StageHealth& health = out.health;
        std::vector<ScanRecord>& records = out.value;
        try {
          const CertStore& store = population(snapshot);
          health.total = store.size();
          const Scanner scanner(scenario_.scanner);
          records = scanner.scan(store);
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
          records.clear();
        }
        return out;
      });
  return scans_.emplace(snapshot, std::move(computed)).first->second;
}

const DiscoveryReport& Pipeline::discovery(Snapshot snapshot,
                                           Methodology methodology) const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  const auto key = std::make_pair(snapshot, methodology);
  const auto it = reports_.find(key);
  if (it != reports_.end()) return it->second;

  obs::ScopedSpan span("pipeline.discovery");
  fault::StageHealth health;
  DiscoveryReport result;
  try {
    const std::vector<ScanRecord>& records = scan_records(snapshot);
    health.total = records.size();
    const OffnetClassifier classifier(internet_, methodology);
    result = classifier.classify(records);
    if (result.total_offnet_ips() == 0 &&
        registry(snapshot).server_count() > 0) {
      // Quality gate: the ground truth deployed offnets but discovery came
      // back empty -- downstream studies would silently report nothing.
      health.status = fault::StageStatus::kFailed;
      health.reasons.push_back("no offnet IPs discovered");
    }
  } catch (const Error& error) {
    health.status = fault::StageStatus::kFailed;
    health.reasons.push_back(std::string("discovery: ") + error.what());
    result = DiscoveryReport();
    result.methodology = methodology;
  }
  const DiscoveryReport& report =
      reports_.emplace(key, std::move(result)).first->second;

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
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!vps_) {
    obs::ScopedSpan span("pipeline.vantage_points");
    vps_ = std::make_unique<VantagePointSet>(internet_, scenario_.vantage_points,
                                             scenario_.vantage_seed);
    obs::metrics().gauge("mlab.vantage_points").set(
        static_cast<double>(vps_->size()));
  }
  return *vps_;
}

const PingMesh& Pipeline::ping_mesh() const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!mesh_) {
    obs::ScopedSpan span("pipeline.ping_mesh");
    mesh_ = std::make_unique<PingMesh>(internet_, vantage_points(),
                                       scenario_.ping);

    fault::StageHealth health;
    health.total = vantage_points().size();
    for (std::size_t vp = 0; vp < vantage_points().size(); ++vp) {
      if (mesh_->vp_dark(vp)) ++health.dropped;
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
        if (mesh_->isp_storm_limited(isp)) ++storming;
      }
      if (storming > 0) {
        health.status = std::max(health.status, fault::StageStatus::kDegraded);
        health.reasons.push_back(
            std::to_string(storming) +
            " hosting ISPs under ICMP rate-limit storms");
      }
    }
    record_health("ping_mesh", health);
  }
  return *mesh_;
}

std::vector<AsIndex> Pipeline::hosting_isps_2023() const {
  return discovery(Snapshot::k2023, Methodology::k2023).isps_hosting_at_least(1);
}

const std::vector<IspPlot>& Pipeline::plots() const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!plots_) {
    plots_ = persisted_stage(
        "clustering", "pipeline.clustering",
        make_key("plot", store::kPlotSchema, world_digest_, {}), store::encode,
        store::decode_plots, [&] {
          const std::vector<AsIndex> isps = hosting_isps_2023();
          return merge_isp_outcomes(isps, cluster_isps(isps));
        });
  }
  return *plots_;
}

const std::vector<IspClustering>& Pipeline::clusterings(double xi) const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  const std::uint64_t key = xi_key(xi);
  const auto it = clusterings_.find(key);
  if (it != clusterings_.end()) return it->second;

  const std::size_t min_pts = ColocationConfig().min_pts;
  std::vector<IspClustering> extracted;
  extracted.reserve(plots().size());
  for (const IspPlot& plot : plots()) {
    extracted.push_back(extract_at_xi(plot, min_pts, xi));
  }
  return clusterings_.emplace(key, std::move(extracted)).first->second;
}

std::string Pipeline::stream_spill_path(AsIndex isp) const {
  // Named like an artifact key of type "matrix", with the .mmx extension
  // marking the aligned spill layout (store/matrix_file.h).
  std::string name = make_key("matrix", store::kLatencyMatrixSchema,
                              world_digest_,
                              {static_cast<std::uint64_t>(isp)})
                         .filename();
  name.replace(name.size() - 4, 4, ".mmx");
  return stream_dir_ + "/" + name;
}

Pipeline::ClusterFanout Pipeline::cluster_isps(
    const std::vector<AsIndex>& isps) const {
  ColocationConfig config;
  config.filter = scenario_.filter;
  const OffnetRegistry& reg = registry(Snapshot::k2023);
  const PingMesh& mesh = ping_mesh();
  const ColocationClusterer clusterer(reg, mesh, vantage_points(), config);

  // Fan the per-ISP plots across the thread pool. Each ISP's outcome lands
  // in its own preallocated slot, and the health/result merge walks the
  // slots in ISP order on one thread, so results, health records and
  // counters are bit-identical to the serial loop for any thread count.
  ClusterFanout fanout;
  fanout.outcomes.resize(isps.size());
  std::vector<IspOutcome>& outcomes = fanout.outcomes;
  const std::size_t threads =
      std::min(default_thread_count(), std::max<std::size_t>(isps.size(), 1));
  obs::metrics().gauge("cluster.threads").set(static_cast<double>(threads));
  obs::metrics().gauge("cluster.tasks").set(static_cast<double>(isps.size()));
  const std::size_t block =
      std::max<std::size_t>(1, isps.size() / (threads * 4));
  const bool streaming = !stream_dir_.empty();
  std::atomic<std::uint64_t> corrupt_spills{0};

  // Streamed path: the matrix lives in a .mmx spill and clustering reads
  // it through an mmap view, so the full matrix never sits on the heap. A
  // malformed spill is treated like a corrupt artifact (delete, remeasure,
  // respill); a failed spill write degrades to the in-memory path --
  // bit-identical either way (docs/SCALING.md).
  const auto plot_streamed = [&](AsIndex isp) -> IspPlot {
    const std::string path = stream_spill_path(isp);
    std::optional<store::MappedLatencyMatrix> mapped;
    try {
      mapped = store::MappedLatencyMatrix::open_if_exists(path);
    } catch (const store::SerdeError&) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      corrupt_spills.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error&) {
      // Unmappable (permissions, exotic filesystem): leave the file alone
      // and fall through to a fresh measurement + in-memory fallback below.
    }
    if (!mapped.has_value()) {
      const LatencyMatrix measured = mesh.measure_isp(reg, isp);
      try {
        store::write_matrix_file(path, measured);
        mapped = store::MappedLatencyMatrix::open(path);
      } catch (const Error&) {
        return clusterer.plot(isp, measured);
      }
    }
    return clusterer.plot(isp, *mapped, scenario_.stream_block_rows);
  };

  parallel_for_blocks(
      isps.size(), block,
      [&](std::size_t begin, std::size_t end) {
        // Shard-level aggregation: each worker's contiguous run of ISPs is
        // one sample of cluster.shard_ms, next to the per-ISP wall times.
        // The spans ride the task-context propagation in the pool, so they
        // render under pipeline.clustering in the exported trace instead of
        // as orphan roots.
        obs::ScopedSpan shard_span("cluster.shard");
        obs::ScopedTimer shard_timer("cluster.shard_ms");
        for (std::size_t i = begin; i < end; ++i) {
          obs::ScopedSpan isp_span("cluster.isp");
          obs::ScopedTimer timer("cluster.isp_wall_ms");
          IspOutcome& out = outcomes[i];
          try {
            out.plot = streaming ? plot_streamed(isps[i])
                                 : clusterer.plot(isps[i],
                                                  mesh.measure_isp(reg, isps[i]));
          } catch (const Error& error) {
            // Quality gate: one pathological ISP matrix must not abort the
            // other few thousand -- keep an unusable placeholder, move on.
            out.failed = true;
            out.error = error.what();
            out.plot = IspPlot();
            out.plot.isp = isps[i];
          }
          obs::metrics().counter("cluster.isps_clustered").add(1);
        }
      },
      threads);
  fanout.corrupt_spills = corrupt_spills.load();
  return fanout;
}

Pipeline::StageOutput<std::vector<IspPlot>> Pipeline::merge_isp_outcomes(
    const std::vector<AsIndex>& isps, ClusterFanout fanout) const {
  std::vector<IspOutcome>& outcomes = fanout.outcomes;
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
  if (fanout.corrupt_spills > 0) {
    merged.store_note = std::to_string(fanout.corrupt_spills) +
                        " corrupt latency matrices (.mmx spills) recomputed";
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
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!routing_) {
    obs::ScopedSpan span("pipeline.routing");
    routing_ = std::make_unique<RoutingEngine>(internet_);
  }
  return *routing_;
}

const PtrStore& Pipeline::ptr_store() const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!ptr_) {
    obs::ScopedSpan span("pipeline.ptr_store");
    PtrFaultCounts counts;
    ptr_ = std::make_unique<PtrStore>(PtrStore::build(
        internet_, registry(Snapshot::k2023), scenario_.ptr, &counts));
    fault::StageHealth health;
    health.total = registry(Snapshot::k2023).server_count();
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
  }
  return *ptr_;
}

const std::map<AsIndex, IspPeeringEvidence>& Pipeline::peering_study(
    Hypergiant hg) const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  const auto it = peering_.find(hg);
  if (it != peering_.end()) return it->second;

  obs::ScopedSpan span("pipeline.peering_study");
  // The engine carries the plan's BGP-flap knobs (folded into
  // scenario_.traceroute by the constructor); the IXP registry is shared
  // across hypergiants.
  if (!traceroute_engine_) {
    traceroute_engine_ =
        std::make_unique<TracerouteEngine>(internet_, scenario_.traceroute);
  }
  if (!ixp_registry_) {
    ixp_registry_ = std::make_unique<IxpRegistry>(
        IxpRegistry::build(internet_, scenario_.ixp));
  }
  const PeeringStudy study(internet_, *traceroute_engine_, *ixp_registry_,
                           scenario_.peering);
  const AsIndex hg_as = internet_.as_by_asn(profile(hg).asn);
  const std::vector<AsIndex> targets = internet_.access_isps();
  PeeringStudyOutcome outcome;
  std::map<AsIndex, IspPeeringEvidence> evidence =
      study.run(hg_as, targets, routing(), &outcome);

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
  return peering_.emplace(hg, std::move(evidence)).first->second;
}

const DemandModel& Pipeline::demand() const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!demand_) {
    obs::ScopedSpan span("pipeline.demand");
    demand_ = std::make_unique<DemandModel>(internet_);
  }
  return *demand_;
}

const CapacityModel& Pipeline::capacity() const {
  std::lock_guard<std::recursive_mutex> lock(stage_mutex_);
  if (!capacity_) {
    obs::ScopedSpan span("pipeline.capacity");
    capacity_ = std::make_unique<CapacityModel>(internet_, registry(Snapshot::k2023),
                                                demand(), scenario_.capacity);
  }
  return *capacity_;
}

}  // namespace repro
