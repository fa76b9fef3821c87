// google-benchmark microbenchmarks for the computational kernels: the
// trimmed-Manhattan distance, pairwise distance matrices, OPTICS ordering
// and xi extraction, valley-free route computation, traceroute synthesis,
// scan classification, and the deterministic RNG.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cluster/optics.h"
#include "obs/report.h"
#include "hypergiant/background.h"
#include "mlab/ping_mesh.h"
#include "route/peering_inference.h"
#include "scan/classifier.h"
#include "topology/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

// Shared tiny world (built once; benchmarks must not mutate it).
const Internet& world() {
  static const Internet net =
      InternetGenerator(GeneratorConfig::tiny()).generate();
  return net;
}

const OffnetRegistry& registry() {
  static const OffnetRegistry reg = [] {
    DeploymentConfig config;
    config.footprint_scale = GeneratorConfig::tiny().scale;
    return DeploymentPolicy(world(), config).deploy(Snapshot::k2023);
  }();
  return reg;
}

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.lognormal(0.0, 0.5));
}
BENCHMARK(BM_RngLognormal);

void BM_TrimmedManhattan(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> a(cols);
  std::vector<double> b(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    a[i] = rng.uniform(10.0, 200.0);
    b[i] = rng.uniform(10.0, 200.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trimmed_manhattan(a, b, 0.2));
  }
}
BENCHMARK(BM_TrimmedManhattan)->Arg(40)->Arg(163);

void BM_PairwiseDistances(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 163;
  Rng rng(3);
  std::vector<double> table(rows * cols);
  for (auto& value : table) value = rng.uniform(10.0, 200.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairwise_distances(table, rows, cols, 0.2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PairwiseDistances)->Arg(16)->Arg(64)->Arg(256)->Complexity();

// Same kernel pinned to one thread, for a serial-vs-pool comparison against
// BM_PairwiseDistances (which uses the REPRO_THREADS / hardware default).
void BM_PairwiseDistancesSerial(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 163;
  Rng rng(3);
  std::vector<double> table(rows * cols);
  for (auto& value : table) value = rng.uniform(10.0, 200.0);
  set_default_thread_count(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairwise_distances(table, rows, cols, 0.2));
  }
  set_default_thread_count(0);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PairwiseDistancesSerial)->Arg(64)->Arg(256)->Complexity();

DistanceMatrix random_blobs(std::size_t n, std::size_t blobs) {
  Rng rng(4);
  std::vector<double> positions(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions[i] = static_cast<double>(i % blobs) * 1000.0 +
                   static_cast<double>(i) + rng.uniform(-0.02, 0.02);
  }
  DistanceMatrix matrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      matrix.set(i, j, std::abs(positions[i] - positions[j]));
    }
  }
  return matrix;
}

void BM_OpticsOrder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const DistanceMatrix matrix = random_blobs(n, 4);
  for (auto _ : state) {
    OpticsResult result;
    optics_order(matrix, 2, result);
    benchmark::DoNotOptimize(result.ordering.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OpticsOrder)->Arg(32)->Arg(128)->Arg(512)->Complexity();

void BM_OpticsXiExtraction(benchmark::State& state) {
  const DistanceMatrix matrix = random_blobs(256, 4);
  OpticsResult base;
  optics_order(matrix, 2, base);
  for (auto _ : state) {
    reextract_xi(base, 2, 0.1);
    benchmark::DoNotOptimize(base.cluster_count);
  }
}
BENCHMARK(BM_OpticsXiExtraction);

// routes_to only climbs the destination's provider chain; every other
// route resolves on first read.
void BM_RoutesToClimbOnly(benchmark::State& state) {
  const RoutingEngine engine(world());
  const AsIndex google = world().as_by_asn(kGoogleAsn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.routes_to(google));
  }
}
BENCHMARK(BM_RoutesToClimbOnly);

// The full-table cost: routes_to plus every AS's entry, what a caller that
// reads every route (network load, the tests) pays.
void BM_ResolveEveryEntry(benchmark::State& state) {
  const RoutingEngine engine(world());
  const AsIndex google = world().as_by_asn(kGoogleAsn);
  for (auto _ : state) {
    const RoutingTable table = engine.routes_to(google);
    for (const As& as : world().ases) {
      benchmark::DoNotOptimize(table.entry(as.index).next_hop);
    }
  }
}
BENCHMARK(BM_ResolveEveryEntry);

void BM_Traceroute(benchmark::State& state) {
  const RoutingEngine engine(world());
  const TracerouteEngine tracer(world(), TracerouteConfig{});
  const AsIndex google = world().as_by_asn(kGoogleAsn);
  const AsIndex target = world().access_isps().front();
  const RoutingTable table = engine.routes_to(target);
  const Ipv4 dst = world().ases[target].user_prefixes.front().at(1);
  std::uint64_t flow = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.trace(google, dst, table, ++flow));
  }
}
BENCHMARK(BM_Traceroute);

void BM_ScanAndClassify(benchmark::State& state) {
  PopulationConfig population;
  population.background_per_isp = 1;
  const TlsEndpoints endpoints =
      build_tls_population(world(), registry(), Snapshot::k2023, population);
  const Scanner scanner(ScannerConfig{});
  const OffnetClassifier classifier(world(), Methodology::k2023);
  for (auto _ : state) {
    // The scan consumes its population, so each iteration scans a copy.
    const auto records = scanner.scan(endpoints);
    benchmark::DoNotOptimize(classifier.classify(records));
  }
}
BENCHMARK(BM_ScanAndClassify);

void BM_PingIspMeasurement(benchmark::State& state) {
  const VantagePointSet vps(world(), 40, 163163);
  const PingMesh mesh(world(), vps, PingConfig{});
  const AsIndex isp = registry().hosting_isps().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh.measure_isp(registry(), isp));
  }
}
BENCHMARK(BM_PingIspMeasurement);

// Median ns per (VP, IP) cell of measure_isp over the ISP that
// BM_PingIspMeasurement measures: 9 samples, each repeating the call until
// it has run for at least 50 ms, so one descheduled call on a shared host
// cannot set the figure.
double ping_ns_per_cell() {
  const VantagePointSet vps(world(), 40, 163163);
  const PingMesh mesh(world(), vps, PingConfig{});
  const AsIndex isp = registry().hosting_isps().front();
  const std::size_t cells = registry().servers_at(isp).size() * vps.size();
  constexpr std::size_t kSamples = 9;
  std::vector<double> samples;
  for (std::size_t sample = 0; sample < kSamples; ++sample) {
    const bench::Stopwatch watch;
    std::size_t calls = 0;
    double seconds = 0.0;
    do {
      benchmark::DoNotOptimize(mesh.measure_isp(registry(), isp));
      ++calls;
      seconds = watch.seconds();
    } while (seconds < 0.05);
    samples.push_back(seconds * 1e9 / static_cast<double>(calls * cells));
  }
  std::ranges::nth_element(samples, samples.begin() + kSamples / 2);
  return samples[kSamples / 2];
}

// Best-of-3 wall time for one pairwise_distances call at a fixed thread
// count (0 restores the REPRO_THREADS / hardware default afterwards).
double time_pairwise(const std::vector<double>& table, std::size_t rows,
                     std::size_t cols, std::size_t threads) {
  set_default_thread_count(threads);
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    const bench::Stopwatch watch;
    benchmark::DoNotOptimize(pairwise_distances(table, rows, cols, 0.2));
    const double seconds = watch.seconds();
    if (run == 0 || seconds < best) best = seconds;
  }
  set_default_thread_count(0);
  return best;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const repro::bench::Stopwatch total;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  // Headline serial-vs-parallel speedup of the dominant kernel (the per-ISP
  // distance matrix), recorded in BENCH_perf_micro.json for trend tooling.
  // 8 threads matches the determinism test tier; on smaller machines the
  // pool still runs 8 workers, so the number reflects real oversubscription.
  // On a single-hardware-thread host the serial/parallel ratio would only
  // measure pool overhead, so the comparison is skipped outright and the
  // speedup fields stay absent -- repro-bench diff ignores fields missing
  // from either side, so the gate can never trip on timeslicing noise.
  {
    using namespace repro;
    const std::size_t rows = 256;
    const std::size_t cols = 163;
    const std::size_t threads = 8;
    Rng rng(3);
    std::vector<double> table(rows * cols);
    for (auto& value : table) value = rng.uniform(10.0, 200.0);
    const bool speedup_meaningful = hardware_thread_count() > 1;
    const double serial = time_pairwise(table, rows, cols, 1);
    const double parallel =
        speedup_meaningful ? time_pairwise(table, rows, cols, threads) : 0.0;
    const double speedup =
        speedup_meaningful && parallel > 0.0 ? serial / parallel : 0.0;
    // Per-phase cost of the SIMD kernel at the paper's vector length (163
    // vantage points, 20% trim): |a-b| fill vs select vs ascending-sum
    // reduce, ns per pair at the dispatched level.
    const KernelPhaseProfile phases = profile_kernel_phases(cols, 0.2, 2000);
    // The synthetic ping's per-cell cost (the Appendix-A campaign).
    const double ping_ns = ping_ns_per_cell();
    // Cost of one xi re-extraction sweep over a warm 256-point ordering:
    // the resident report service re-extracts per (ISP, xi) query, so this
    // is the serial path the OPTICS scratch-reuse work targets. Best of 5
    // batches, like the kernel phases.
    const DistanceMatrix blob_matrix = random_blobs(256, 4);
    OpticsResult optics_base;
    optics_order(blob_matrix, 2, optics_base);
    double optics_extract_ns = 0.0;
    {
      constexpr int kBatch = 50;
      for (int rep = 0; rep < 5; ++rep) {
        const bench::Stopwatch watch;
        for (int i = 0; i < kBatch; ++i) {
          benchmark::DoNotOptimize(
              extract_xi_clusters(optics_base.reachability, 2, 0.1, 2));
        }
        const double ns = watch.seconds() * 1e9 / kBatch;
        if (rep == 0 || ns < optics_extract_ns) optics_extract_ns = ns;
      }
    }
    if (speedup_meaningful) {
      std::printf(
          "\npairwise_distances %zux%zu: serial %.4f s, %zu threads %.4f s "
          "(speedup %.2fx, %zu hardware threads)\n",
          rows, cols, serial, threads, parallel, speedup,
          hardware_thread_count());
    } else {
      std::printf(
          "\npairwise_distances %zux%zu: serial %.4f s (1 hardware thread; "
          "parallel comparison skipped)\n",
          rows, cols, serial);
    }
    std::printf(
        "kernel phases (simd %s, cols %zu): diff %.1f ns/pair, select %.1f "
        "ns/pair, sum %.1f ns/pair\n",
        phases.simd_level.c_str(), cols, phases.diff_ns_op,
        phases.select_ns_op, phases.sum_ns_op);
    std::printf("optics xi extraction (n 256): %.0f ns/extract\n",
                optics_extract_ns);
    std::printf("ping measure_isp: %.1f ns/cell\n", ping_ns);
    char fields[768];
    char speedup_fields[192] = "";
    if (speedup_meaningful) {
      std::snprintf(speedup_fields, sizeof(speedup_fields),
                    "\"pairwise_parallel_seconds\":%.6f,"
                    "\"pairwise_threads\":%zu,\"pairwise_speedup\":%.3f,",
                    parallel, threads, speedup);
    }
    std::snprintf(fields, sizeof(fields),
                  "\"pairwise_serial_seconds\":%.6f,"
                  "%s"
                  "\"kernel_diff_ns_op\":%.1f,"
                  "\"kernel_select_ns_op\":%.1f,"
                  "\"kernel_sum_ns_op\":%.1f,"
                  "\"optics_extract_ns_op\":%.0f,"
                  "\"ping_ns_per_cell\":%.1f",
                  serial, speedup_fields, phases.diff_ns_op,
                  phases.select_ns_op, phases.sum_ns_op, optics_extract_ns,
                  ping_ns);
    bench::print_footer("perf_micro", total, {}, fields);
  }

  // With REPRO_TRACE=1 the kernels above populate span/metric state; dump it
  // like the table harnesses do.
  repro::obs::maybe_write_run_report();
  return 0;
}
