// Load generator for the resident report service (docs/SERVICE.md): fires
// thousands of mixed warm/cold/incremental queries at an in-process
// ReportService over a private artifact store and reports the SLO numbers
// the ROADMAP asks for -- warm-query p50/p99 latency and the warm-hit
// ratio -- on a BENCH_report_service.json line with peak_rss_mb stamped
// like every other bench.
//
// Phases:
//   1. Cold warm-up (single client): every distinct base query of the mix
//      is touched once, so the storm below measures the steady state, not
//      first-contact compute. Four worlds (clean, chaos, half-chaos, a
//      reseeded chaos variant) x the report queries, plus xi-incremental
//      table2 queries that re-extract clusters from the warm reachability
//      artifacts.
//   2. Mixed storm: REPRO_SERVE_QUERIES total queries (default 1200, floor
//      1000) from REPRO_SERVE_CLIENTS threads (default 8) in a fixed
//      interleaved schedule -- overwhelmingly warm repeats, with the
//      cold/incremental keys recurring so the mix stays mixed. Per-query
//      latency and cached-ness are recorded per client and merged.
//
// Extra BENCH fields: queries, clients, distinct, warm_hit_ratio,
// warm_p50_ms, warm_p99_ms, p50_ms, p99_ms, cold_queries, errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/service.h"
#include "store/artifact_store.h"

namespace {

using repro::bench::Stopwatch;
using repro::serve::QueryRequest;
using repro::serve::QueryResponse;
using repro::serve::ReportService;

std::size_t env_count(const char* name, std::size_t fallback,
                      std::size_t floor) {
  if (const char* text = std::getenv(name)) {
    const unsigned long long value = std::strtoull(text, nullptr, 10);
    if (value > 0) return std::max<std::size_t>(value, floor);
  }
  return fallback;
}

struct Sample {
  double ms = 0.0;
  bool cached = false;
  bool ok = false;
};

double percentile_of(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  return sorted_ms[static_cast<std::size_t>(rank + 0.5)];
}

}  // namespace

int main() {
  using namespace repro;

  bench::print_header("Report-service load (mixed warm/cold/incremental)");
  Stopwatch watch;

  // Private store root: the bench must measure its own cold/warm economics,
  // not whatever REPRO_STORE happens to hold.
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("repro-serve-bench-" + std::to_string(::getpid())))
          .string();
  serve::ServiceConfig config;
  {
    store::StoreConfig store_config;
    store_config.root = root + "/store";
    config.artifacts = std::make_shared<store::ArtifactStore>(store_config);
  }
  const Scale scale = bench::scale_from_env();
  config.default_scale = scale;
  ReportService service(std::move(config));

  // The distinct query mix. Worlds: clean, full chaos, half-intensity
  // chaos, and a reseeded chaos (same knobs, different fault draw -- a new
  // world digest, so genuinely cold). The xi-incremental table2 queries
  // re-extract clusters from the clean world's warm plots only.
  fault::FaultPlan reseeded = fault::FaultPlan::chaos();
  reseeded.seed = 777;
  const std::pair<const char*, fault::FaultPlan> worlds[] = {
      {"clean", fault::FaultPlan::none()},
      {"chaos", fault::FaultPlan::chaos()},
      {"chaos50", fault::FaultPlan::chaos().scaled_by(0.5)},
      {"reseeded", reseeded},
  };
  const char* report_queries[] = {"table1", "figure1", "table2", "figure2",
                                  "section421"};

  std::vector<QueryRequest> distinct;
  for (const auto& [name, plan] : worlds) {
    (void)name;
    for (const char* query : report_queries) {
      QueryRequest request;
      request.query = query;
      request.scale = scale;
      request.plan = plan;
      if (std::string_view(query) == "table2" ||
          std::string_view(query) == "figure2") {
        request.xis = {0.1, 0.9};
      }
      distinct.push_back(std::move(request));
    }
  }
  for (const double xi : {0.3, 0.5}) {
    QueryRequest request;
    request.query = "table2";
    request.scale = scale;
    request.plan = fault::FaultPlan::none();
    request.xis = {xi};
    distinct.push_back(std::move(request));
  }

  std::printf("cold warm-up: %zu distinct queries...\n", distinct.size());
  std::vector<Sample> cold_samples;
  std::size_t cold_queries = 0;
  double cold_ms_max = 0.0;
  for (const QueryRequest& request : distinct) {
    const QueryResponse response = service.execute(request);
    if (!response.ok) {
      std::fprintf(stderr, "warm-up query failed: %s\n",
                   response.json.c_str());
      return 1;
    }
    if (!response.cached) ++cold_queries;
    cold_ms_max = std::max(cold_ms_max, response.ms);
    cold_samples.push_back({response.ms, response.cached, response.ok});
  }

  const std::size_t total =
      env_count("REPRO_SERVE_QUERIES", 1200, /*floor=*/1000);
  const std::size_t clients = env_count("REPRO_SERVE_CLIENTS", 8, 1);
  std::printf("storm: %zu queries from %zu clients over %zu keys...\n",
              total, clients, distinct.size());

  // Fixed interleaved schedule: client t executes indices t, t+clients, ...
  // of one global sequence that cycles the distinct keys with a stride
  // coprime to the key count, so every client mixes worlds and queries.
  std::vector<Sample> samples(total);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const Stopwatch storm_watch;
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t]() {
      for (std::size_t i = t; i < total; i += clients) {
        const QueryRequest& request = distinct[(i * 7 + t) % distinct.size()];
        const QueryResponse response = service.execute(request);
        samples[i].ms = response.ms;
        samples[i].cached = response.cached;
        samples[i].ok = response.ok;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double storm_seconds = storm_watch.seconds();

  // Statistics cover the whole mixed run -- the cold/incremental warm-up
  // plus the storm -- so the warm-hit ratio reflects an actual mix instead
  // of a pre-warmed steady state reading 1.0 by construction.
  samples.insert(samples.end(), cold_samples.begin(), cold_samples.end());
  std::vector<double> all_ms;
  std::vector<double> warm_ms;
  std::size_t errors = 0;
  for (const Sample& sample : samples) {
    if (!sample.ok) ++errors;
    all_ms.push_back(sample.ms);
    if (sample.cached) warm_ms.push_back(sample.ms);
  }
  std::sort(all_ms.begin(), all_ms.end());
  std::sort(warm_ms.begin(), warm_ms.end());
  const double warm_hit_ratio =
      samples.empty() ? 0.0
                      : static_cast<double>(warm_ms.size()) /
                            static_cast<double>(samples.size());

  std::printf(
      "storm done in %.2f s: %.0f qps, warm-hit ratio %.3f, "
      "warm p50 %.3f ms, warm p99 %.3f ms, %zu errors\n",
      storm_seconds, static_cast<double>(total) / storm_seconds,
      warm_hit_ratio, percentile_of(warm_ms, 50.0),
      percentile_of(warm_ms, 99.0), errors);

  char extra[512];
  std::snprintf(
      extra, sizeof(extra),
      "\"queries\":%zu,\"clients\":%zu,\"distinct\":%zu,"
      "\"warm_hit_ratio\":%.4f,\"warm_p50_ms\":%.4f,\"warm_p99_ms\":%.4f,"
      "\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"cold_queries\":%zu,"
      "\"cold_ms_max\":%.1f,\"errors\":%zu",
      samples.size(), clients, distinct.size(), warm_hit_ratio,
      percentile_of(warm_ms, 50.0), percentile_of(warm_ms, 99.0),
      percentile_of(all_ms, 50.0), percentile_of(all_ms, 99.0), cold_queries,
      cold_ms_max, errors);
  bench::print_footer("report_service", watch, {}, extra);

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return errors == 0 ? 0 : 1;
}
