#include "probe.h"

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "cluster/colocation.h"
#include "cluster/distance.h"
#include "cluster/optics.h"
#include "core/analyses.h"
#include "mlab/filters.h"
#include "obs/metrics.h"
#include "store/matrix_file.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using repro::Methodology;
using repro::Pipeline;
using repro::Snapshot;

constexpr double kXis[] = {0.1, 0.9};

/// Appends one rendered study to `report`; when tracing, times the analysis
/// and the render separately.
template <class Study>
void add_section(std::string& report, Json* layers, double* step_sum_s,
                 const char* name, Study&& study) {
  if (layers == nullptr) {
    report += "```\n" + render(study()) + "```\n\n";
    return;
  }
  const double start = now_s();
  const auto result = study();
  const double analysed = now_s();
  const std::string text = render(result);
  const double rendered = now_s();
  layers->num(std::string("core.") + name + "_wall_s", rendered - start);
  if (std::string_view(name) == "validation") {
    layers->num("rdns.validate_wall_s", analysed - start);
  }
  *step_sum_s += rendered - start;
  report += "```\n" + text + "```\n\n";
}

/// One forced stage: wall, process CPU and resident-set readings around it.
struct Stage {
  double wall = 0.0;
  double cpu = 0.0;
  double rss_before = 0.0;
  double rss_after = 0.0;
  double peak_after = 0.0;
};

template <class Body>
Stage force(double& step_sum_s, Body&& body) {
  Stage stage;
  stage.rss_before = rss_mb();
  const Interval interval;
  body();
  stage.wall = interval.wall();
  stage.cpu = interval.cpu();
  stage.rss_after = rss_mb();
  stage.peak_after = peak_rss_mb();
  step_sum_s += stage.wall;
  return stage;
}

/// Busy time and work of one ISP's replayed clustering.
struct IspReplay {
  double ping_wall = 0, ping_cpu = 0, spill_wall = 0, spill_cpu = 0;
  double clean_wall = 0, clean_cpu = 0;
  double kernel_wall = 0, kernel_cpu = 0, optics_wall = 0, optics_cpu = 0;
  double extract_wall = 0, extract_cpu = 0;
  double rows = 0, kept_rows = 0, pairs = 0;
  bool usable = false;
  bool match = false;
};

bool same_clustering(const repro::IspClustering& a,
                     const repro::IspClustering& b) {
  return a.isp == b.isp && a.usable == b.usable &&
         a.registry_indices == b.registry_indices && a.labels == b.labels &&
         a.cluster_count == b.cluster_count &&
         a.dropped_unresponsive == b.dropped_unresponsive &&
         a.dropped_impossible == b.dropped_impossible &&
         a.usable_sites == b.usable_sites;
}

/// Re-runs one ISP through measure_isp -> clean_matrix ->
/// pairwise_distances -> optics_order -> reextract_xi and compares the labels
/// with the pipeline's. With `spill_dir` set (scenarios that stream their
/// matrices) it takes ColocationClusterer's streamed path, as
/// Pipeline::cluster_isps does: the measured matrix is written to an .mmx
/// spill and mapped, cleaning keeps no compact copy, and the distances come
/// from pairwise_distances_streamed in `block_rows`-high blocks.
IspReplay replay_isp(const Pipeline& pipeline,
                     const repro::ColocationConfig& config,
                     const std::string& spill_dir, repro::AsIndex isp,
                     const repro::IspClustering& want_fine,
                     const repro::IspClustering& want_coarse) {
  IspReplay out;
  double wall = now_s();
  double cpu = thread_cpu_s();
  const auto lap = [&](double& wall_sum, double& cpu_sum) {
    const double w = now_s();
    const double c = thread_cpu_s();
    wall_sum += w - wall;
    cpu_sum += c - cpu;
    wall = w;
    cpu = c;
  };

  repro::IspClustering base;
  base.isp = isp;
  std::vector<repro::IspClustering> per_xi;
  try {
    repro::LatencyMatrix raw = pipeline.ping_mesh().measure_isp(
        pipeline.registry(Snapshot::k2023), isp);
    lap(out.ping_wall, out.ping_cpu);
    out.rows = static_cast<double>(raw.row_count());

    std::optional<repro::store::MappedLatencyMatrix> mapped;
    if (!spill_dir.empty()) {
      const std::string path = spill_dir + "/" + std::to_string(isp) + ".mmx";
      repro::store::write_matrix_file(path, raw);
      mapped = repro::store::MappedLatencyMatrix::open(path);
      raw = repro::LatencyMatrix{};  // the pipeline drops it once mapped
      lap(out.spill_wall, out.spill_cpu);
    }
    const repro::LatencyMatrixRows in_memory(raw);
    const repro::LatencyRows& rows =
        mapped.has_value() ? static_cast<const repro::LatencyRows&>(*mapped)
                           : in_memory;

    bool done = rows.row_count() == 0;
    repro::FilteredMatrix cleaned;
    if (!done) {
      cleaned = repro::clean_matrix(rows, pipeline.vantage_points(),
                                    config.filter, !mapped.has_value());
      lap(out.clean_wall, out.clean_cpu);
      out.kept_rows = static_cast<double>(cleaned.row_count());
      base.dropped_unresponsive = cleaned.dropped_unresponsive;
      base.dropped_impossible = cleaned.dropped_impossible;
      base.usable_sites = cleaned.col_count();
      done = !cleaned.usable;
    }
    if (!done) {
      base.usable = true;
      for (const std::size_t row : cleaned.kept_rows) {
        base.registry_indices.push_back(rows.server_index(row));
      }
    }
    if (done || cleaned.row_count() == 1) {
      if (!done) base.labels.assign(1, -1);
      per_xi.assign(std::size(kXis), base);
    } else {
      const std::size_t n = cleaned.row_count();
      const repro::DistanceMatrix distances =
          mapped.has_value()
              ? repro::pairwise_distances_streamed(
                    [&](std::size_t row, double* out_row) {
                      repro::fill_compact_row(rows, cleaned, row, out_row);
                    },
                    n, cleaned.col_count(), config.trim_fraction,
                    pipeline.scenario().stream_block_rows)
              : repro::pairwise_distances(cleaned.rtt, n, cleaned.col_count(),
                                          config.trim_fraction);
      lap(out.kernel_wall, out.kernel_cpu);
      out.pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
      repro::OpticsResult optics;
      repro::optics_order(distances, config.min_pts, optics);
      lap(out.optics_wall, out.optics_cpu);
      for (const double xi : kXis) {
        repro::reextract_xi(optics, config.min_pts, xi);
        repro::IspClustering clustering = base;
        clustering.labels = optics.labels;
        clustering.cluster_count = optics.cluster_count;
        per_xi.push_back(std::move(clustering));
      }
      lap(out.extract_wall, out.extract_cpu);
    }
  } catch (const repro::Error&) {
    // The pipeline keeps an unusable placeholder for a failing ISP.
    base.usable = false;
    repro::IspClustering placeholder;
    placeholder.isp = isp;
    per_xi.assign(std::size(kXis), placeholder);
  }
  out.usable = base.usable;
  out.match = same_clustering(per_xi[0], want_fine) &&
              same_clustering(per_xi[1], want_coarse);
  return out;
}

/// Replays the clustering stage over the hosting ISPs, fanned out with
/// parallel_for_blocks exactly as Pipeline::cluster_isps blocks it. When the
/// stage loaded its clusterings from the store (`stage_computed` false) the
/// replay still checks the labels, but its timings and work counts describe
/// work the pass never did, so they read 0.
void replay_clustering(const Pipeline& pipeline, double stage_cpu,
                       bool stage_computed, Json& layers, bool& labels_match) {
  const std::vector<repro::AsIndex> isps = pipeline.hosting_isps_2023();
  const std::vector<repro::IspClustering>& fine = pipeline.clusterings(0.1);
  const std::vector<repro::IspClustering>& coarse = pipeline.clusterings(0.9);
  repro::ColocationConfig config;
  config.filter = pipeline.scenario().filter;

  std::string spill_dir;
  if (pipeline.scenario().stream_matrices) {
    spill_dir = (std::filesystem::temp_directory_path() /
                 ("perfbench-replay-" + std::to_string(::getpid())))
                    .string();
    std::filesystem::remove_all(spill_dir);
    std::filesystem::create_directories(spill_dir);
  }

  std::vector<IspReplay> slots(isps.size());
  const std::size_t threads = std::min(repro::default_thread_count(),
                                       std::max<std::size_t>(isps.size(), 1));
  const std::size_t block = std::max<std::size_t>(1, isps.size() / (threads * 4));
  const Interval interval;
  labels_match = fine.size() == isps.size() && coarse.size() == isps.size();
  if (labels_match) {
    repro::parallel_for_blocks(
        isps.size(), block,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            slots[i] = replay_isp(pipeline, config, spill_dir, isps[i],
                                  fine[i], coarse[i]);
          }
        },
        threads);
  }
  const double replay_wall = interval.wall();
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);

  IspReplay sum;
  double usable = 0;
  for (const IspReplay& s : slots) {
    sum.ping_wall += s.ping_wall;
    sum.ping_cpu += s.ping_cpu;
    sum.spill_wall += s.spill_wall;
    sum.spill_cpu += s.spill_cpu;
    sum.clean_wall += s.clean_wall;
    sum.clean_cpu += s.clean_cpu;
    sum.kernel_wall += s.kernel_wall;
    sum.kernel_cpu += s.kernel_cpu;
    sum.optics_wall += s.optics_wall;
    sum.optics_cpu += s.optics_cpu;
    sum.extract_wall += s.extract_wall;
    sum.extract_cpu += s.extract_cpu;
    sum.rows += s.rows;
    sum.kept_rows += s.kept_rows;
    sum.pairs += s.pairs;
    if (s.usable) ++usable;
    labels_match = labels_match && s.match;
  }
  if (!stage_computed) {
    sum = IspReplay{};
    usable = 0;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double attributed = sum.ping_cpu + sum.spill_cpu + sum.clean_cpu +
                            sum.kernel_cpu + sum.optics_cpu + sum.extract_cpu;
  layers.num("mlab.ping_wall_s", sum.ping_wall)
      .num("mlab.ping_cpu_s", sum.ping_cpu)
      .num("mlab.ping_rows", sum.rows)
      .num("mlab.clean_wall_s", sum.clean_wall)
      .num("mlab.clean_cpu_s", sum.clean_cpu)
      .num("mlab.clean_kept_ratio", ratio(sum.kept_rows, sum.rows))
      .num("mlab.usable_isp_ratio",
           ratio(usable, static_cast<double>(isps.size())))
      .num("cluster.kernel_wall_s", sum.kernel_wall)
      .num("cluster.kernel_cpu_s", sum.kernel_cpu)
      .num("cluster.kernel_pairs", sum.pairs)
      .num("cluster.kernel_ns_per_pair", ratio(sum.kernel_cpu * 1e9, sum.pairs))
      .num("cluster.optics_wall_s", sum.optics_wall)
      .num("cluster.extract_wall_s", sum.extract_wall)
      .num("cluster.spill_wall_s", sum.spill_wall)
      .num("cluster.replay_wall_s", stage_computed ? replay_wall : 0.0)
      .num("cluster.unattributed_share",
           stage_computed ? 1.0 - ratio(attributed, stage_cpu) : 0.0);
}

}  // namespace

std::string render_report(const Pipeline& pipeline, Json* layers,
                          double* step_sum_s) {
  const std::span<const double> xis(kXis);
  std::string report;
  const auto add = [&](const char* name, auto&& study) {
    add_section(report, layers, step_sum_s, name, study);
  };
  add("table1", [&] { return repro::table1_study(pipeline); });
  add("figure1", [&] { return repro::figure1_study(pipeline); });
  add("longitudinal", [&] { return repro::longitudinal_study(pipeline); });
  add("table2", [&] { return repro::table2_study(pipeline, xis); });
  add("figure2", [&] { return repro::figure2_study(pipeline, xis); });
  add("validation", [&] { return repro::validation_study(pipeline, 0.1); });
  add("section33", [&] { return repro::section33_study(pipeline); });
  add("section41", [&] { return repro::section41_study(pipeline, xis); });
  add("section421", [&] { return repro::section421_study(pipeline); });
  add("section422", [&] { return repro::section422_study(pipeline); });
  add("section43", [&] { return repro::section43_study(pipeline); });
  add("section6", [&] { return repro::section6_study(pipeline); });
  return report;
}

void add_store_layers(Json& layers, const repro::store::ArtifactStore* store,
                      const repro::store::StoreStats& before) {
  const repro::store::StoreStats now =
      store == nullptr ? before : store->stats();
  const double hits = static_cast<double>(now.hits - before.hits);
  const double misses = static_cast<double>(now.misses - before.misses);
  layers.num("store.hits", hits)
      .num("store.misses", misses)
      .num("store.saved", static_cast<double>(now.saved - before.saved))
      .num("store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0)
      .num("store.used_mb", store == nullptr ? 0.0 : store->used_mb())
      .num("store.herd_waits",
           static_cast<double>(now.herd_waits - before.herd_waits));
}

bool all_stages_ok(const Pipeline& pipeline) {
  for (const auto& [stage, health] : pipeline.stage_health()) {
    if (health.status != repro::fault::StageStatus::kOk) return false;
  }
  return true;
}

ProbeResult probe_layers(
    const std::function<std::shared_ptr<Pipeline>()>& make) {
  ProbeResult out;
  Json& layers = out.layers;
  double& sum = out.step_sum_s;
  const Interval pass;

  const Stage construct = force(sum, [&] { out.pipeline = make(); });
  const Pipeline& p = *out.pipeline;
  const Stage registry = force(sum, [&] {
    p.registry(Snapshot::k2021);
    p.registry(Snapshot::k2023);
  });
  double endpoints = 0;
  const Stage population = force(sum, [&] {
    endpoints = static_cast<double>(p.population(Snapshot::k2021).size() +
                                    p.population(Snapshot::k2023).size());
  });
  double records_2021 = 0;
  double records_2023 = 0;
  const Stage scan = force(sum, [&] {
    records_2021 = static_cast<double>(p.scan_records(Snapshot::k2021).size());
    records_2023 = static_cast<double>(p.scan_records(Snapshot::k2023).size());
  });
  const Stage classify = force(sum, [&] {
    p.discovery(Snapshot::k2021, Methodology::k2021);
    p.discovery(Snapshot::k2023, Methodology::k2023);
    p.discovery(Snapshot::k2023, Methodology::k2021);
  });
  const Stage mesh = force(sum, [&] {
    p.vantage_points();
    p.ping_mesh();
  });
  // The stage computed unless an attached store answered it without a save.
  const repro::store::ArtifactStore* store = p.artifact_store();
  const std::uint64_t saved_before =
      store == nullptr ? 0 : store->stats().saved;
  const Stage clustering = force(sum, [&] { p.clusterings(0.1); });
  const bool clustering_computed =
      store == nullptr || store->stats().saved > saved_before;
  double ptr_records = 0;
  const Stage rdns = force(sum, [&] {
    ptr_records = static_cast<double>(p.ptr_store().size());
  });
  repro::obs::Counter& traceroutes =
      repro::obs::metrics().counter("route.traceroutes");
  const std::uint64_t traceroutes_before = traceroutes.value();
  const Stage peering =
      force(sum, [&] { p.peering_study(repro::Hypergiant::kGoogle); });
  const double probes =
      static_cast<double>(traceroutes.value() - traceroutes_before);
  const Stage traffic = force(sum, [&] {
    p.demand();
    p.capacity();
  });
  out.report_hash = digest_hex(render_report(p, &layers, &sum));
  out.pass_wall_s = pass.wall();

  const double classified = records_2021 + 2 * records_2023;
  layers.num("topology.wall_s", construct.wall)
      .num("hypergiant.wall_s", registry.wall)
      .num("tls.wall_s", population.wall)
      .num("tls.cpu_s", population.cpu)
      .num("tls.rss_mb", population.rss_after - population.rss_before)
      .num("tls.endpoints", endpoints)
      .num("scan.wall_s", scan.wall)
      .num("scan.cpu_s", scan.cpu)
      .num("scan.rss_mb", scan.rss_after - scan.rss_before)
      .num("scan.records", records_2021 + records_2023)
      .num("scan.classify_wall_s", classify.wall)
      .num("scan.classify_records_per_s",
           classify.wall > 0 ? classified / classify.wall : 0.0)
      .num("mlab.mesh_wall_s", mesh.wall)
      .num("cluster.stage_wall_s", clustering.wall)
      .num("cluster.stage_cpu_s", clustering.cpu)
      .num("cluster.rss_growth_mb", clustering.peak_after - clustering.rss_before)
      .num("rdns.ptr_wall_s", rdns.wall)
      .num("rdns.records", ptr_records)
      .num("route.peering_wall_s", peering.wall)
      .num("route.peering_cpu_s", peering.cpu)
      .num("route.traceroutes", probes)
      .num("route.traceroutes_per_s", peering.wall > 0 ? probes / peering.wall : 0.0)
      .num("traffic.wall_s", traffic.wall);
  replay_clustering(p, clustering.cpu, clustering_computed, layers,
                    out.labels_match);
  return out;
}

}  // namespace perfbench
