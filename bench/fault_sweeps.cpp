// Fault-sensitivity sweep: how hard can a measurement campaign degrade
// before the paper's headline conclusions move?
//
// Sweeps FaultPlan::chaos() scaled to several intensities (0 = clean
// baseline) and, at each point, recomputes the three headline results --
// Table 1 per-hypergiant ISP counts, the Figure 1 user fraction in >= 2-HG
// ISPs, and the Table 2 colocation buckets -- then reports their drift from
// the clean run. The intensity-0 row is bit-identical to the seed pipeline,
// so any nonzero drift there is a regression.
//
// Two sweep modes:
//   * combined (default): FaultPlan::chaos() -- every pathology at once --
//     scaled across the intensity grid. The worst case.
//   * per-pathology (--per-pathology, or REPRO_SWEEP=pathology): one knob at
//     a time -- scan shard truncation, vantage-point outages, ICMP
//     rate-limit storms, certificate churn, BGP path flapping, stale or
//     missing PTR records, live store corruption -- each at chaos()
//     strength scaled across intensities, everything else zeroed.
//     Attributes drift to the pathology that causes it. The store_chaos
//     dimension is measurement-identical to the clean run: it garbles the
//     shared store's warm artifacts while pool workers are loading them, so
//     every drift column must stay 0.0 while the status goes degraded --
//     the self-heal proof.
//
// Artifacts: bench_output/fault_sweeps.csv (one row per sweep point, with a
// `pathology` column: "combined" or the knob name) plus the standard
// BENCH_fault_sweeps.json; run with REPRO_TRACE=1 for the span table and
// run_report.json (whose "fault" section reflects the last, harshest sweep
// point).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/stage_health.h"
#include "store/artifact_store.h"
#include "util/strings.h"

namespace {

using namespace repro;

struct SweepPoint {
  std::string pathology = "combined";
  double intensity = 0.0;
  fault::StageStatus status = fault::StageStatus::kOk;
  Table1Study table1;
  Figure1Study figure1;
  Table2Study table2;
  ValidationStudy validation;
  Section421Study s421;
  std::map<std::string, fault::StageHealth> stages;
  double seconds = 0.0;
};

/// One sweep dimension: a named base plan whose rates get scaled across the
/// intensity grid.
struct SweepDimension {
  std::string name;
  fault::FaultPlan base;
};

/// The per-pathology dimensions: each takes exactly one knob from chaos()
/// and zeroes everything else, so conclusion drift is attributable. (The
/// miss-burst and anycast knobs are only exercised by the combined sweep.)
std::vector<SweepDimension> pathology_dimensions() {
  const fault::FaultPlan chaos = fault::FaultPlan::chaos();
  std::vector<SweepDimension> out;

  fault::FaultPlan scan = fault::FaultPlan::none();
  scan.scan.shard_truncation = chaos.scan.shard_truncation;
  out.push_back({"scan_truncation", scan});

  fault::FaultPlan vps = fault::FaultPlan::none();
  vps.ping.vp_outage_rate = chaos.ping.vp_outage_rate;
  out.push_back({"vp_outage", vps});

  fault::FaultPlan storm = fault::FaultPlan::none();
  storm.ping.icmp_storm_rate = chaos.ping.icmp_storm_rate;
  storm.ping.icmp_storm_failure = chaos.ping.icmp_storm_failure;
  out.push_back({"icmp_storm", storm});

  fault::FaultPlan churn = fault::FaultPlan::none();
  churn.cert.churn_rate = chaos.cert.churn_rate;
  out.push_back({"cert_churn", churn});

  fault::FaultPlan flap = fault::FaultPlan::none();
  flap.route.flap_rate = chaos.route.flap_rate;
  flap.route.flap_period = chaos.route.flap_period;
  out.push_back({"bgp_flap", flap});

  fault::FaultPlan missing = fault::FaultPlan::none();
  missing.rdns.missing_ptr_rate = chaos.rdns.missing_ptr_rate;
  out.push_back({"missing_ptr", missing});

  fault::FaultPlan stale = fault::FaultPlan::none();
  stale.rdns.stale_ptr_rate = chaos.rdns.stale_ptr_rate;
  stale.rdns.garbled_ptr_rate = chaos.rdns.garbled_ptr_rate;
  out.push_back({"stale_ptr", stale});

  // chaos() keeps store corruption off (it would break warm-identity
  // guarantees elsewhere), so this dimension sets its own rate: at full
  // intensity well over half the warm artifacts get garbled mid-run.
  fault::FaultPlan store = fault::FaultPlan::none();
  store.store.corrupt_rate = 0.6;
  out.push_back({"store_chaos", store});

  return out;
}

/// User-weighted fraction of users inside >= 2-hypergiant ISPs (the
/// headline Figure 1 number, aggregated over countries).
double users_frac_ge2(const Figure1Study& study) {
  double users = 0.0;
  double weighted = 0.0;
  for (const auto& row : study.countries) {
    users += row.users_m;
    weighted += row.users_m * row.frac_ge2;
  }
  return users == 0.0 ? 0.0 : weighted / users;
}

/// Largest relative drift (percent) of any per-hypergiant 2023 ISP count.
double table1_max_drift_pct(const Table1Study& clean, const Table1Study& now) {
  double worst = 0.0;
  for (std::size_t i = 0; i < clean.rows.size() && i < now.rows.size(); ++i) {
    const double base = static_cast<double>(clean.rows[i].isps_2023);
    if (base == 0.0) continue;
    const double drift =
        std::abs(static_cast<double>(now.rows[i].isps_2023) - base) / base;
    worst = std::max(worst, drift * 100.0);
  }
  return worst;
}

const Table2Row* find_row(const Table2Study& study, Hypergiant hg, double xi) {
  for (const auto& row : study.rows) {
    if (row.hg == hg && row.xi == xi) return &row;
  }
  return nullptr;
}

/// Mean absolute drift (percentage points) across all Table 2 colocation
/// buckets, matched by (hypergiant, xi).
double table2_bucket_drift_pts(const Table2Study& clean,
                               const Table2Study& now) {
  double sum = 0.0;
  std::size_t buckets = 0;
  for (const auto& row : clean.rows) {
    const Table2Row* other = find_row(now, row.hg, row.xi);
    if (other == nullptr) continue;
    const double pairs[][2] = {
        {row.sole_pct, other->sole_pct},
        {row.coloc_0_pct, other->coloc_0_pct},
        {row.coloc_mid_low_pct, other->coloc_mid_low_pct},
        {row.coloc_mid_high_pct, other->coloc_mid_high_pct},
        {row.coloc_full_pct, other->coloc_full_pct},
    };
    for (const auto& pair : pairs) {
      sum += std::abs(pair[0] - pair[1]);
      ++buckets;
    }
  }
  return buckets == 0 ? 0.0 : sum / static_cast<double>(buckets);
}

std::size_t table2_isp_count(const Table2Study& study, double xi) {
  std::size_t count = 0;
  for (const auto& row : study.rows) {
    if (row.xi == xi) count = std::max(count, row.isp_count);
  }
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  bench::Stopwatch total;

  bool per_pathology = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--per-pathology") per_pathology = true;
  }
  if (const char* mode = std::getenv("REPRO_SWEEP")) {
    if (std::string(mode) == "pathology") per_pathology = true;
  }

  bench::print_header(per_pathology
                          ? "Fault sweeps: conclusion drift per pathology"
                          : "Fault sweeps: conclusion drift vs. fault intensity");

  const Scenario scenario = bench::scenario_from_env();
  const double xis[] = {0.1, 0.9};

  // Every sweep point shares one artifact store, so a point whose plan
  // leaves the measurement faults clean (the route, rDNS and store
  // pathologies) shares the clean baseline's world digest and reuses its
  // scan and clustering artifacts instead of recomputing them. REPRO_STORE
  // is honored when set; otherwise the store lives in a temp directory
  // removed before exit, so the sweep stays side-effect free.
  std::shared_ptr<store::ArtifactStore> artifact_store =
      store::ArtifactStore::from_env();
  std::filesystem::path temp_store_root;
  if (artifact_store == nullptr) {
    temp_store_root = std::filesystem::temp_directory_path() /
                      ("repro-fault-sweeps-" + std::to_string(::getpid()));
    artifact_store = std::make_shared<store::ArtifactStore>(
        store::StoreConfig{temp_store_root.string(), false, 0.0});
  }

  // The clean baseline is shared by every dimension (intensity 0 of any
  // pathology is the same run), so it is computed once, first.
  std::vector<SweepDimension> dimensions;
  std::vector<double> intensities;
  if (per_pathology) {
    dimensions = pathology_dimensions();
    intensities = {0.25, 1.0};
  } else {
    dimensions = {{"combined", fault::FaultPlan::chaos()}};
    intensities = {0.1, 0.25, 0.5, 1.0};
  }

  const auto run_point = [&](const std::string& pathology,
                             const fault::FaultPlan& base,
                             double intensity) {
    bench::Stopwatch watch;
    Pipeline pipeline(scenario, base.scaled_by(intensity), artifact_store);
    SweepPoint point;
    point.pathology = pathology;
    point.intensity = intensity;
    point.table1 = table1_study(pipeline);
    point.figure1 = figure1_study(pipeline);
    point.table2 = table2_study(pipeline, xis);
    // The rDNS validation and traceroute-peering studies ride along so the
    // two new fault families (PTR pathologies, BGP flaps) have conclusion
    // columns of their own.
    point.validation = validation_study(pipeline, xis[0]);
    point.s421 = section421_study(pipeline);
    point.status = pipeline.overall_status();
    point.stages = pipeline.stage_health();
    point.seconds = watch.seconds();
    std::printf("%-16s intensity %.2f: status=%s, %zu hosting ISPs, %.1f s\n",
                pathology.c_str(), intensity,
                std::string(to_string(point.status)).c_str(),
                point.table1.total_hosting_isps_2023, point.seconds);
    for (const auto& [stage, health] : point.stages) {
      if (health.status == fault::StageStatus::kOk) continue;
      std::printf("  %-16s %-8s dropped %llu/%llu\n", stage.c_str(),
                  std::string(to_string(health.status)).c_str(),
                  static_cast<unsigned long long>(health.dropped),
                  static_cast<unsigned long long>(health.total));
    }
    return point;
  };

  std::vector<SweepPoint> points;
  points.push_back(run_point("clean", fault::FaultPlan::none(), 0.0));
  for (const SweepDimension& dimension : dimensions) {
    for (const double intensity : intensities) {
      points.push_back(run_point(dimension.name, dimension.base, intensity));
    }
  }

  const SweepPoint& clean = points.front();

  std::printf("\n");
  TextTable table({"pathology", "intensity", "status", "hosting ISPs",
                   "T1 max HG drift", "F1 users >=2HG", "F1 drift",
                   "T2 ISPs (xi=0.1)", "T2 bucket drift", "V confidence",
                   "V drift", "S421 peer", "S421 drift"});
  for (std::size_t column = 3; column < 13; ++column) {
    table.set_align(column, Align::kRight);
  }
  std::string csv =
      "pathology,intensity,status,hosting_isps,t1_max_hg_drift_pct,"
      "f1_users_frac_ge2,f1_drift_pts,t2_isps_xi01,t2_bucket_drift_pts,"
      "v_confidence,v_drift_pts,s421_peer_pct,s421_peer_drift_pts,"
      "seconds\n";
  for (const SweepPoint& point : points) {
    const double t1_drift = table1_max_drift_pct(clean.table1, point.table1);
    const double f1 = users_frac_ge2(point.figure1);
    const double f1_drift = (f1 - users_frac_ge2(clean.figure1)) * 100.0;
    const double t2_drift = table2_bucket_drift_pts(clean.table2, point.table2);
    // Validation confidence (corrected HOIHO, consistency x hint coverage):
    // garbled PTR names starve it through coverage, stale ones through
    // consistency. Peering drift: flaps demote kPeer verdicts.
    const double v_conf = point.validation.with_corrections.confidence();
    const double v_drift =
        (v_conf - clean.validation.with_corrections.confidence()) * 100.0;
    const double s421_drift = point.s421.peer_pct - clean.s421.peer_pct;
    table.add_row({point.pathology, format_fixed(point.intensity, 2),
                   std::string(to_string(point.status)),
                   std::to_string(point.table1.total_hosting_isps_2023),
                   format_fixed(t1_drift, 1) + "%", format_percent(f1, 1),
                   format_fixed(f1_drift, 1) + " pts",
                   std::to_string(table2_isp_count(point.table2, 0.1)),
                   format_fixed(t2_drift, 1) + " pts",
                   format_percent(v_conf, 1),
                   format_fixed(v_drift, 1) + " pts",
                   format_fixed(point.s421.peer_pct, 1) + "%",
                   format_fixed(s421_drift, 1) + " pts"});
    char line[400];
    std::snprintf(line, sizeof(line),
                  "%s,%.2f,%s,%zu,%.3f,%.5f,%.3f,%zu,%.3f,%.5f,%.3f,%.3f,"
                  "%.3f,%.3f\n",
                  point.pathology.c_str(), point.intensity,
                  std::string(to_string(point.status)).c_str(),
                  point.table1.total_hosting_isps_2023, t1_drift, f1, f1_drift,
                  table2_isp_count(point.table2, 0.1), t2_drift, v_conf,
                  v_drift, point.s421.peer_pct, s421_drift, point.seconds);
    csv += line;
  }
  std::printf("%s\n", table.render().c_str());

  const char* dir = std::getenv("REPRO_BENCH_OUT");
  const std::string csv_path =
      std::string(dir == nullptr ? "bench_output" : dir) + "/fault_sweeps.csv";
  try {
    write_file(csv_path, csv);
    std::printf("wrote %s\n", csv_path.c_str());
  } catch (const Error& error) {
    std::fprintf(stderr, "csv not written: %s\n", error.what());
  }

  // Shared-store verdict: with the store_chaos dimension in the sweep this
  // proves live corruption actually happened (chaos_injected > 0) and was
  // healed by recompute (recomputed >= chaos_injected artifacts touched by
  // load_or_compute), not silently served.
  const store::StoreStats stats = artifact_store->stats();
  std::printf(
      "store: %llu hits, %llu corrupt, %llu chaos_injected, %llu recomputed, "
      "%llu herd_waits\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.corrupt),
      static_cast<unsigned long long>(stats.chaos_injected),
      static_cast<unsigned long long>(stats.recomputed),
      static_cast<unsigned long long>(stats.herd_waits));

  if (!temp_store_root.empty()) {
    artifact_store.reset();  // release before deleting the backing directory
    std::error_code ec;
    std::filesystem::remove_all(temp_store_root, ec);
  }

  // The BENCH line carries the harshest sweep point's health verdicts; the
  // clean baseline is by construction all-ok.
  bench::print_footer("fault_sweeps", total, points.back().stages);
  return 0;
}
