// Warm-start benchmark: how much does the persistent artifact store save?
//
// Runs the heavy paper studies (Table 1, Table 2, Figure 2) twice over one
// artifact store root: a cold pass into an empty store (computes and
// publishes every artifact) and a warm pass with a fresh Pipeline over the
// same root (scan records and the OPTICS plots the clusterings are
// extracted from all come from disk; topology is regenerated). The warm
// outputs are checked bit-identical to the cold ones -- the store's core
// contract -- and the speedup is reported.
//
// The store lives in <bench_out>/warm_start.store and is wiped at startup so
// the cold pass is honestly cold; the REPRO_STORE env toggle is ignored here
// on purpose (this harness must never evict a store the user cares about).
//
// Each pass is timed end to end -- Pipeline construction (topology
// generation) plus all three studies -- so the reported speedup reflects a
// user-visible run, not just the study phase. The Pipeline constructor is
// also timed on its own.
//
// Artifacts: BENCH_warm_start.json with "speedup" (end-to-end),
// "cold_pipeline_seconds"/"warm_pipeline_seconds", "store.hit",
// "store.miss" and "store.corrupt" fields (the store counters of the warm
// pass). Exits nonzero if the warm pass is not bit-identical.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_common.h"
#include "store/artifact_store.h"

namespace {

using namespace repro;

struct PassResult {
  std::string table1;
  std::string table2;
  std::string figure2;
  std::map<std::string, fault::StageHealth> stages;
  /// End-to-end: Pipeline construction (topology) plus all three studies.
  double seconds = 0.0;
  /// Pipeline construction alone: topology generation.
  double pipeline_seconds = 0.0;
};

PassResult run_pass(const Scenario& scenario,
                    const std::shared_ptr<store::ArtifactStore>& artifacts) {
  bench::Stopwatch watch;
  Pipeline pipeline(scenario, fault::FaultPlan::none(), artifacts);
  PassResult result;
  result.pipeline_seconds = watch.seconds();
  result.table1 = render(table1_study(pipeline));
  result.table2 = render(table2_study(pipeline, bench::kPaperXis));
  result.figure2 = render(figure2_study(pipeline, bench::kPaperXis));
  result.stages = pipeline.stage_health();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace

int main() {
  using namespace repro;
  namespace fs = std::filesystem;
  bench::Stopwatch total;
  bench::print_header("Warm start: artifact-store cold vs. warm pipeline");

  const Scenario scenario = bench::scenario_from_env();
  const char* dir = std::getenv("REPRO_BENCH_OUT");
  const fs::path root =
      fs::path(dir == nullptr ? "bench_output" : dir) / "warm_start.store";
  std::error_code ec;
  fs::remove_all(root, ec);

  store::StoreConfig config;
  config.root = root.string();

  std::printf("cold pass (store: %s)...\n", config.root.c_str());
  auto cold_store = std::make_shared<store::ArtifactStore>(config);
  const PassResult cold = run_pass(scenario, cold_store);
  const store::StoreStats cold_stats = cold_store->stats();
  std::printf("  %.1f s end to end (%.1f s topology); %llu artifacts saved (%.1f MB)\n",
              cold.seconds, cold.pipeline_seconds,
              static_cast<unsigned long long>(cold_stats.saved),
              cold_store->used_mb());

  std::printf("warm pass...\n");
  auto warm_store = std::make_shared<store::ArtifactStore>(config);
  const PassResult warm = run_pass(scenario, warm_store);
  const store::StoreStats warm_stats = warm_store->stats();
  std::printf("  %.1f s end to end (%.1f s topology); "
              "%llu hits, %llu misses, %llu corrupt\n",
              warm.seconds, warm.pipeline_seconds,
              static_cast<unsigned long long>(warm_stats.hits),
              static_cast<unsigned long long>(warm_stats.misses),
              static_cast<unsigned long long>(warm_stats.corrupt));

  const bool identical = warm.table1 == cold.table1 &&
                         warm.table2 == cold.table2 &&
                         warm.figure2 == cold.figure2;
  const double speedup =
      warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;
  std::printf("\nwarm outputs bit-identical to cold: %s\n",
              identical ? "yes" : "NO -- STORE CONTRACT VIOLATED");
  std::printf("end-to-end speedup: %.1fx (cold %.1f s -> warm %.1f s)\n",
              speedup, cold.seconds, warm.seconds);

  char extra[512];
  std::snprintf(extra, sizeof(extra),
                "\"cold_seconds\":%.6f,\"warm_seconds\":%.6f,"
                "\"cold_pipeline_seconds\":%.6f,"
                "\"warm_pipeline_seconds\":%.6f,"
                "\"speedup\":%.3f,\"identical\":%s,\"store.hit\":%llu,"
                "\"store.miss\":%llu,\"store.corrupt\":%llu",
                cold.seconds, warm.seconds, cold.pipeline_seconds,
                warm.pipeline_seconds, speedup, identical ? "true" : "false",
                static_cast<unsigned long long>(warm_stats.hits),
                static_cast<unsigned long long>(warm_stats.misses),
                static_cast<unsigned long long>(warm_stats.corrupt));
  bench::print_footer("warm_start", total, warm.stages, extra);
  return identical ? 0 : 1;
}
