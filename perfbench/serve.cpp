// serve_whatif: one in-process ReportService over a private store at tiny
// scale, driven by a closed loop of client threads through a fixed number of
// seeded rounds of what-if queries.
//
// Set-up builds the clean base world cold (table1 and table2) in a fresh
// service and store, `--setups` times; the last service is kept.
// Each round then asks, in this order:
//   xi       table2/figure2 at a new xi on the base world: a clustering
//            stage over the stored latency matrices;
//   chaos    table1 on a fresh measurement-fault world: the full cold path;
//   world    per route/rDNS-knob world, its six report queries back to back:
//            table1 (kind world), section421 (peering) and the other four
//            (render). The first needs a new resident pipeline over store
//            artifacts shared with the base world; the others arrive while
//            it is being built and wait for it, as a client reading a new
//            world's whole report would;
//   hit      repeats of the previous round's answers (render-cache hits).
// The repository records no service traffic, so the proportions are
// synthetic; perfbench/README.md gives the reason for each. Rounds name
// more worlds than the service keeps resident, so pipelines are evicted and
// re-resolved warm from the store.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "perfbench.h"
#include "probe.h"
#include "serve/service.h"
#include "store/artifact_store.h"

namespace perfbench {

namespace {

using repro::fault::FaultPlan;
using repro::serve::QueryRequest;
using repro::serve::ReportService;

constexpr repro::Scale kScale = repro::Scale::kTiny;
constexpr std::size_t kClients = 4;
constexpr std::size_t kKnobWorldsPerRound = 10;
constexpr std::size_t kRepeatsPerRound = 20;
/// A run is --seconds / kRoundSeconds rounds (rounded), a round's length on
/// a 4-core host today. The count depends on --seconds only, not on the
/// program's speed: the process's peak RSS grows with the rounds it has
/// run, so a time-bounded loop would read a faster service as a fatter one.
constexpr double kRoundSeconds = 5.0;
/// Every report query the service answers; the first names a world.
constexpr const char* kWorldQueries[] = {"table1",  "section421", "figure1",
                                         "table2",  "figure2",    "section43"};

enum class Kind { kWorld, kPeering, kRender, kXi, kChaos, kHit };
constexpr const char* kKindNames[] = {"world", "peering", "render",
                                      "xi",    "chaos",   "hit"};

struct Query {
  QueryRequest request;
  Kind kind = Kind::kHit;
};

struct Sample {
  Kind kind = Kind::kHit;
  double ms = 0.0;
  bool cached = false;
};

/// Uniform double in [0, 1) from the raw generator output (portable,
/// unlike std::uniform_real_distribution).
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

QueryRequest request_for(const std::string& query, const FaultPlan& plan,
                         std::vector<double> xis = {}) {
  QueryRequest request;
  request.query = query;
  request.scale = kScale;
  request.plan = plan;
  if (xis.empty() && (query == "table2" || query == "figure2")) {
    xis = {0.1, 0.9};
  }
  request.xis = std::move(xis);
  return request;
}

std::string answer_key(const QueryRequest& request) {
  std::string key = request.query + "|" + request.plan.to_json();
  for (const double xi : request.xis) key += "|" + std::to_string(xi);
  return key;
}

Kind kind_of_world_query(std::string_view query) {
  if (query == "table1") return Kind::kWorld;
  if (query == "section421") return Kind::kPeering;
  return Kind::kRender;
}

/// The seeded query script of one round: the xi and chaos queries, then
/// each knob world's six report queries back to back, then repeats of the
/// round before (of this round's queries in the first round).
std::vector<Query> make_round(std::uint64_t seed, std::size_t round,
                              const std::vector<Query>& previous) {
  std::mt19937_64 rng(seed * 1000003u + round);
  std::vector<Query> script;
  const double xi = 0.15 + 0.7 * unit(rng);
  script.push_back({request_for(round % 2 == 0 ? "table2" : "figure2",
                                FaultPlan::none(), {xi}),
                    Kind::kXi});
  FaultPlan chaos = FaultPlan::chaos();
  chaos.seed = rng();
  script.push_back({request_for("table1", chaos), Kind::kChaos});

  for (std::size_t w = 0; w < kKnobWorldsPerRound; ++w) {
    FaultPlan plan = FaultPlan::none();
    const double rate = 0.1 + 0.2 * unit(rng);
    if (w % 2 == 0) {
      plan.route.flap_rate = rate;
    } else {
      plan.rdns.missing_ptr_rate = rate;
    }
    for (const char* query : kWorldQueries) {
      script.push_back({request_for(query, plan), kind_of_world_query(query)});
    }
  }
  const std::vector<Query>& source = previous.empty() ? script : previous;
  for (std::size_t r = 0; r < kRepeatsPerRound; ++r) {
    Query repeat = source[rng() % source.size()];
    repeat.kind = Kind::kHit;
    script.push_back(std::move(repeat));
  }
  return script;
}

/// A fresh service over its own store at `root`, with the base world built
/// cold. Returns the build time.
double build_service(const std::string& root,
                     std::unique_ptr<ReportService>& service) {
  std::filesystem::remove_all(root);
  repro::serve::ServiceConfig config;
  repro::store::StoreConfig store_config;
  store_config.root = root;
  config.artifacts = std::make_shared<repro::store::ArtifactStore>(store_config);
  config.default_scale = kScale;
  service.reset();
  const double start = now_s();
  service = std::make_unique<ReportService>(std::move(config));
  // table1 and table2 store every artifact the knob worlds share.
  for (const char* query : {"table1", "table2"}) {
    const auto response =
        service->execute(request_for(query, FaultPlan::none()));
    if (!response.ok) throw std::runtime_error("set-up query failed: " + response.json);
  }
  return now_s() - start;
}

double counter(const char* name) {
  return static_cast<double>(repro::obs::metrics().counter(name).value());
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace

int run_serve(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 0));
  const std::string root = args.get("store", "");
  const double seconds = args.number("seconds", 10);
  const bool trace = args.get("trace", "0") == "1";
  const int setups = std::max(1, static_cast<int>(args.number("setups", 3)));
  if (root.empty()) throw std::runtime_error("serve needs --store DIR");

  std::vector<double> setup_s;
  std::unique_ptr<ReportService> service;
  for (int i = 0; i < setups; ++i) {
    setup_s.push_back(
        build_service(root + "/setup" + std::to_string(i), service));
    if (i > 0) std::filesystem::remove_all(root + "/setup" + std::to_string(i - 1));
  }
  repro::store::ArtifactStore& store = *service->resolver().artifact_store();
  const repro::store::StoreStats store_before = store.stats();
  const double built_before = counter("serve.pipeline_built");
  const double evicted_before = counter("serve.pipeline_evicted");
  const double waits_before = counter("serve.inflight_waits");

  std::mutex mutex;  // guards answers, samples and resident_peak
  std::map<std::string, std::string> answers;
  std::vector<Sample> samples;
  double resident_peak = 0;
  std::size_t failed = 0;
  std::vector<double> round_wall;
  std::vector<double> round_cpu;
  std::vector<Query> previous;

  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kRoundSeconds)));
  const double start = now_s();
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::vector<Query> script = make_round(seed, round, previous);
    std::atomic<std::size_t> next{0};
    const Interval interval;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next++; i < script.size(); i = next++) {
          const auto response = service->execute(script[i].request);
          const std::string key = answer_key(script[i].request);
          const std::string hash = digest_hex(response.render);
          const double resident =
              static_cast<double>(service->resolver().resident_count());
          std::lock_guard<std::mutex> lock(mutex);
          bool good = response.ok;
          if (good) {
            const auto [it, inserted] = answers.emplace(key, hash);
            good = inserted || it->second == hash;
          }
          if (!good) ++failed;
          resident_peak = std::max(resident_peak, resident);
          samples.push_back({script[i].kind, response.ms, response.cached});
        }
      });
    }
    for (std::thread& client : clients) client.join();
    round_wall.push_back(interval.wall());
    round_cpu.push_back(interval.cpu());
    previous = script;
  }
  const double elapsed = now_s() - start;

  std::vector<double> miss_ms;
  std::vector<double> hit_ms;
  std::map<Kind, std::vector<double>> miss_by_kind;
  for (const Sample& sample : samples) {
    if (sample.cached) {
      hit_ms.push_back(sample.ms);
    } else {
      miss_ms.push_back(sample.ms);
      miss_by_kind[sample.kind].push_back(sample.ms);
    }
  }

  Json out;
  out.num("queries", static_cast<double>(samples.size()))
      .num("failed", static_cast<double>(failed))
      .raw("round_wall_s", number_list(round_wall))
      .raw("round_cpu_s", number_list(round_cpu))
      .raw("setup_s", number_list(setup_s));

  if (trace) {
    Json layers;
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
      if (static_cast<Kind>(k) == Kind::kHit) continue;
      layers.num(std::string("serve.miss_") + kKindNames[k] + "_ms",
                 median_of(miss_by_kind[static_cast<Kind>(k)]));
    }
    std::sort(miss_ms.begin(), miss_ms.end());
    layers.num("serve.miss_p50_ms", median_of(miss_ms))
        .num("serve.miss_p90_ms",
             miss_ms.empty() ? 0.0
                             : miss_ms[std::min(miss_ms.size() - 1,
                                                miss_ms.size() * 9 / 10)])
        .num("serve.queries_per_s", static_cast<double>(samples.size()) / elapsed)
        .num("serve.hit_ratio",
             samples.empty() ? 0.0
                             : static_cast<double>(hit_ms.size()) /
                                   static_cast<double>(samples.size()))
        .num("serve.hit_p50_ms", median_of(hit_ms))
        .num("serve.pipeline_built", counter("serve.pipeline_built") - built_before)
        .num("serve.pipeline_evicted",
             counter("serve.pipeline_evicted") - evicted_before)
        .num("serve.inflight_waits", counter("serve.inflight_waits") - waits_before)
        .num("serve.resident_peak", resident_peak);
    add_store_layers(layers, &store, store_before);

    // Layer probe over one more what-if world, resolved by the service
    // exactly as a query for it would be.
    FaultPlan probe_plan = FaultPlan::none();
    probe_plan.route.flap_rate = 0.5 + 0.4 * static_cast<double>(seed % 1000) / 1000.0;
    ProbeResult probe = probe_layers([&] {
      return service->resolver().pipeline(repro::Scenario::at_scale(kScale),
                                          probe_plan);
    });
    out.flag("labels_match", probe.labels_match)
        .num("pass_wall_s", probe.pass_wall_s)
        .num("step_sum_s", probe.step_sum_s);
    out.raw("layers", probe.layers.merge(layers).dump());
  }
  out.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  service.reset();
  std::filesystem::remove_all(root);
  return 0;
}

}  // namespace perfbench
