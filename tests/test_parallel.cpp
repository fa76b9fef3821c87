// The parallel clustering engine's load-bearing contract: for every thread
// count, parallel execution is bit-identical to serial -- the thread pool
// only changes which thread runs each index range, never what is computed.
// Covers the pool/parallel_for primitives, the vectorized pairwise-distance
// kernel, cluster_isp_multi, the full Pipeline clustering stage (clean
// and under a nonzero FaultPlan) and the peering study's per-target fan-out
// (clean and flapped), plus thread-count invariance of every run-report
// counter. Runs under ThreadSanitizer in scripts/check.sh (ctest -L
// parallel).
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/colocation.h"
#include "cluster/distance.h"
#include "core/pipeline.h"
#include "core/single_flight_lru.h"
#include "fault/fault_plan.h"
#include "hypergiant/profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "route/peering_inference.h"
#include "topology/generator.h"
#include "util/error.h"
#include "util/rng.h"

namespace repro {
namespace {

/// Restores the thread-count override after every test, so a failing
/// EXPECT cannot leak a forced count into later tests.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_default_thread_count(0); }
};

TEST_F(ParallelTest, DefaultThreadCountResolution) {
  set_default_thread_count(3);
  EXPECT_EQ(default_thread_count(), 3u);
  set_default_thread_count(0);
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_GE(hardware_thread_count(), 1u);
}

TEST_F(ParallelTest, SharedPoolCoversDeterminismTier) {
  // The determinism tests below ask for 8 threads; the shared pool must be
  // able to host them even on small machines.
  EXPECT_GE(ThreadPool::shared().worker_count(), 8u);
}

TEST_F(ParallelTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, BlocksPartitionTheRange) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for_blocks(
      kCount, 7,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, kCount);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      8);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for_blocks(
      100, 10,
      [&](std::size_t begin, std::size_t end) {
        // Serial fallback: one body call covering the whole range, on the
        // calling thread, with no pool traffic.
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 100u);
        ++calls;
      },
      1);
  EXPECT_EQ(calls, 1u);
}

TEST_F(ParallelTest, NestedParallelForSerializes) {
  // A body that itself calls parallel_for (pairwise_distances inside the
  // per-ISP fan-out) must not deadlock the pool: the inner loop serializes.
  std::atomic<int> inner_total{0};
  parallel_for(
      4,
      [&](std::size_t) {
        EXPECT_TRUE(ThreadPool::in_parallel_region());
        const std::thread::id worker = std::this_thread::get_id();
        parallel_for(
            50,
            [&](std::size_t) {
              EXPECT_EQ(std::this_thread::get_id(), worker);
              inner_total.fetch_add(1);
            },
            8);
      },
      4);
  EXPECT_EQ(inner_total.load(), 4 * 50);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST_F(ParallelTest, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      parallel_for(
          1000,
          [](std::size_t i) {
            if (i == 617) throw Error("boom at 617");
          },
          8),
      Error);
  // The pool survives a throwing body and keeps scheduling work.
  std::atomic<int> count{0};
  parallel_for(
      100, [&](std::size_t) { count.fetch_add(1); }, 8);
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ParallelTest, CallerDoesNotWaitForIdleHelpers) {
  // Every shared-pool worker is held by unrelated tasks, so the helpers a
  // parallel loop submits sit in the queue. The caller drains all blocks
  // itself and must then return, not wait for helpers with nothing to do.
  ThreadPool& pool = ThreadPool::shared();
  // Shared, so a holder still unwinding after the test returns is safe.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false;
    std::size_t holding = 0;
  };
  const auto latch = std::make_shared<Latch>();
  for (std::size_t w = 0; w < pool.worker_count(); ++w) {
    pool.submit([latch] {
      std::unique_lock<std::mutex> lock(latch->mutex);
      ++latch->holding;
      latch->cv.notify_all();
      latch->cv.wait(lock, [&latch] { return latch->released; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(latch->mutex);
    latch->cv.wait(lock, [&] { return latch->holding == pool.worker_count(); });
  }
  const auto release = [latch] {
    std::lock_guard<std::mutex> lock(latch->mutex);
    latch->released = true;
    latch->cv.notify_all();
  };
  // Unblocks a caller that does wait after 2 s, so a regression fails
  // instead of hanging; a passing run releases it at once.
  std::thread releaser([latch] {
    std::unique_lock<std::mutex> lock(latch->mutex);
    latch->cv.wait_for(lock, std::chrono::seconds(2),
                       [&latch] { return latch->released; });
    latch->released = true;
    latch->cv.notify_all();
  });

  std::atomic<int> count{0};
  const auto start = std::chrono::steady_clock::now();
  parallel_for(
      1000, [&](std::size_t) { count.fetch_add(1); }, 4);
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  release();
  releaser.join();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_LT(waited_s, 1.0) << "caller waited for helpers stuck in the queue";

  // The late helpers find the region closed; the pool keeps working.
  std::atomic<int> after{0};
  parallel_for(
      100, [&](std::size_t) { after.fetch_add(1); }, 8);
  EXPECT_EQ(after.load(), 100);
}

// ------------------------------------------------- single-flight cache --

/// Counter and gauge names every SingleFlight test cache reports under.
template <class V>
typename SingleFlightLru<V>::Metrics test_cache_metrics() {
  return {.hit = "test.sf.hit",
          .inflight_wait = "test.sf.wait",
          .evicted = "test.sf.evicted",
          .resident = "test.sf.resident"};
}

std::uint64_t test_counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// Polls until `done()` holds, or 60 s pass, so a broken cache fails its
/// assertions instead of hanging the suite.
void await(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(ParallelTest, LargestFirstBreaksTiesByPosition) {
  EXPECT_TRUE(largest_first({}).empty());
  EXPECT_EQ(largest_first({3, 9, 3, 1, 9, 0, 3}),
            (std::vector<std::size_t>{1, 4, 0, 2, 6, 3, 5}));
  EXPECT_EQ(largest_first({5, 5, 5, 5}),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(largest_first({1, 2, 3}), (std::vector<std::size_t>{2, 1, 0}));
}

TEST_F(ParallelTest, LargestFirstDispatchKeepsHostingIspOrder) {
  // The clustering fan-out hands ISPs out by descending server count, but
  // each outcome lands in its ISP's slot: at 4 threads the plots (one
  // clustering each) still come back in hosting_isps_2023() order, slot
  // for slot equal to the serial run.
  std::vector<std::vector<AsIndex>> runs;
  for (const std::size_t threads : {1u, 4u}) {
    set_default_thread_count(threads);
    Pipeline pipeline(Scenario::tiny());
    const std::vector<AsIndex> hosting = pipeline.hosting_isps_2023();
    const OffnetRegistry& registry = pipeline.registry(Snapshot::k2023);
    std::vector<std::size_t> servers;
    for (const AsIndex isp : hosting) {
      servers.push_back(registry.servers_at(isp).size());
    }
    std::vector<std::size_t> identity(hosting.size());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    ASSERT_NE(largest_first(servers), identity)
        << "tiny's dispatch order is ISP order; the fence shows nothing";

    std::vector<AsIndex> plotted;
    for (const IspClustering& clustering : pipeline.clusterings(0.1)) {
      plotted.push_back(clustering.isp);
    }
    EXPECT_EQ(plotted, hosting) << "threads=" << threads;
    runs.push_back(std::move(plotted));
  }
  EXPECT_EQ(runs[1], runs[0]);
}

TEST(SingleFlight, ConcurrentMissBuildsOnce) {
  obs::metrics().reset();
  SingleFlightLru<std::shared_ptr<const int>> cache(
      4, test_cache_metrics<std::shared_ptr<const int>>());
  constexpr std::size_t kCallers = 8;
  std::atomic<int> builds{0};
  std::vector<const int*> got(kCallers, nullptr);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      got[t] = cache
                   .get(7,
                        [&] {
                          builds.fetch_add(1);
                          // Hold the build open until every other caller
                          // has parked on it.
                          await([] {
                            return test_counter("test.sf.wait") >=
                                   kCallers - 1;
                          });
                          return std::make_shared<const int>(42);
                        })
                   .get();
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(*got[0], 42);
  for (const int* value : got) EXPECT_EQ(value, got[0]);
  EXPECT_GE(test_counter("test.sf.wait"), kCallers - 1);
  EXPECT_EQ(test_counter("test.sf.hit"), kCallers - 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SingleFlight, ThrowingBuildHandsKeyToWaiter) {
  obs::metrics().reset();
  SingleFlightLru<std::shared_ptr<const int>> cache(
      4, test_cache_metrics<std::shared_ptr<const int>>());
  std::atomic<bool> owner_building{false};
  std::atomic<bool> owner_threw{false};
  std::thread owner([&] {
    try {
      cache.get(1, [&]() -> std::shared_ptr<const int> {
        owner_building.store(true);
        await([] { return test_counter("test.sf.wait") >= 1; });
        throw std::runtime_error("build failed");
      });
    } catch (const std::runtime_error&) {
      owner_threw.store(true);
    }
  });
  await([&] { return owner_building.load(); });

  // Parks on the owner's flight, then takes the key over when it throws.
  std::atomic<int> waiter_builds{0};
  std::shared_ptr<const int> value;
  std::thread waiter([&] {
    value = cache.get(1, [&] {
      waiter_builds.fetch_add(1);
      return std::make_shared<const int>(5);
    });
  });
  owner.join();
  waiter.join();
  EXPECT_TRUE(owner_threw.load());
  EXPECT_GE(test_counter("test.sf.wait"), 1u);  // the waiter did park
  EXPECT_EQ(waiter_builds.load(), 1);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 5);

  bool hit = false;
  const auto again = cache.get(
      1,
      [] {
        ADD_FAILURE() << "a cached key was rebuilt";
        return std::make_shared<const int>(0);
      },
      &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again, value);
}

TEST(SingleFlight, BoundEvictsLeastRecentlyUsed) {
  obs::metrics().reset();
  SingleFlightLru<int> cache(2, test_cache_metrics<int>());
  int builds = 0;
  const auto build = [&builds](int value) {
    return [&builds, value] {
      ++builds;
      return value;
    };
  };
  bool hit = false;
  cache.get(1, build(10));
  cache.get(2, build(20));
  EXPECT_EQ(cache.get(1, build(-1), &hit), 10);  // 1 is now most recent
  EXPECT_TRUE(hit);
  cache.get(3, build(30));  // evicts 2, the least recently used
  EXPECT_EQ(test_counter("test.sf.evicted"), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(obs::metrics().gauge("test.sf.resident").value(), 2.0);
  EXPECT_EQ(cache.get(1, build(-1), &hit), 10);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.get(2, build(21), &hit), 21);  // rebuilt after eviction
  EXPECT_FALSE(hit);
  EXPECT_EQ(test_counter("test.sf.evicted"), 2u);
  EXPECT_EQ(builds, 4);
}

TEST(SingleFlight, UnboundedNeverEvicts) {
  obs::metrics().reset();
  using Value = std::shared_ptr<const std::vector<int>>;
  SingleFlightLru<Value> cache(std::numeric_limits<std::size_t>::max(),
                               test_cache_metrics<Value>());
  // The Pipeline's use: a reference into a cached value outlives any
  // number of later inserts.
  const std::vector<int>& first = *cache.get(
      0, [] { return std::make_shared<const std::vector<int>>(1000, 7); });
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    cache.get(key, [key] {
      return std::make_shared<const std::vector<int>>(
          16, static_cast<int>(key));
    });
  }
  EXPECT_EQ(test_counter("test.sf.evicted"), 0u);
  EXPECT_EQ(cache.size(), 1001u);
  bool hit = false;
  const Value again = cache.get(0, [] { return Value(); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.get(), &first);
  EXPECT_EQ(first, std::vector<int>(1000, 7));
}

std::vector<double> random_table(std::size_t rows, std::size_t cols,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> table(rows * cols);
  for (auto& value : table) value = rng.uniform(10.0, 200.0);
  return table;
}

TEST_F(ParallelTest, PairwiseDistancesBitIdenticalAcrossThreadCounts) {
  const std::size_t rows = 64;
  const std::size_t cols = 40;
  const std::vector<double> table = random_table(rows, cols, 7171);

  set_default_thread_count(1);
  const DistanceMatrix serial = pairwise_distances(table, rows, cols, 0.2);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    set_default_thread_count(threads);
    const DistanceMatrix parallel = pairwise_distances(table, rows, cols, 0.2);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = i + 1; j < rows; ++j) {
        // Exact equality: same kernel, same accumulation order, only the
        // executing thread differs.
        ASSERT_EQ(parallel.at(i, j), serial.at(i, j))
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST_F(ParallelTest, StreamedPairwiseBitIdenticalAcrossThreadCounts) {
  // The block-streamed pairwise pass schedules block pairs instead of rows,
  // so it has its own thread-count story to fence: for every block height,
  // 2/4/8 threads must reproduce the single-threaded result bit-for-bit
  // (and the single-threaded result equals the one-shot pass).
  const std::size_t rows = 64;
  const std::size_t cols = 40;
  const std::vector<double> table = random_table(rows, cols, 7171);
  const RowFiller fill = [&](std::size_t row, double* out) {
    std::copy(table.begin() + static_cast<std::ptrdiff_t>(row * cols),
              table.begin() + static_cast<std::ptrdiff_t>((row + 1) * cols),
              out);
  };

  set_default_thread_count(1);
  const DistanceMatrix oneshot = pairwise_distances(table, rows, cols, 0.2);

  for (const std::size_t block : {1u, 7u, 64u, 0u}) {
    set_default_thread_count(1);
    const DistanceMatrix serial =
        pairwise_distances_streamed(fill, rows, cols, 0.2, block);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      set_default_thread_count(threads);
      const DistanceMatrix parallel =
          pairwise_distances_streamed(fill, rows, cols, 0.2, block);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = i + 1; j < rows; ++j) {
          ASSERT_EQ(parallel.at(i, j), serial.at(i, j))
              << "block=" << block << " threads=" << threads << " cell ("
              << i << "," << j << ")";
          ASSERT_EQ(serial.at(i, j), oneshot.at(i, j))
              << "block=" << block << " cell (" << i << "," << j << ")";
        }
      }
    }
  }
}

void expect_identical(const IspClustering& a, const IspClustering& b,
                      const std::string& context) {
  EXPECT_EQ(a.isp, b.isp) << context;
  EXPECT_EQ(a.usable, b.usable) << context;
  EXPECT_EQ(a.registry_indices, b.registry_indices) << context;
  EXPECT_EQ(a.labels, b.labels) << context;
  EXPECT_EQ(a.cluster_count, b.cluster_count) << context;
  EXPECT_EQ(a.dropped_unresponsive, b.dropped_unresponsive) << context;
  EXPECT_EQ(a.dropped_impossible, b.dropped_impossible) << context;
  EXPECT_EQ(a.usable_sites, b.usable_sites) << context;
}

TEST_F(ParallelTest, ClusterIspMultiThreadInvariant) {
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  DeploymentConfig deploy_config;
  deploy_config.footprint_scale = GeneratorConfig::tiny().scale;
  const OffnetRegistry registry =
      DeploymentPolicy(net, deploy_config).deploy(Snapshot::k2023);
  const VantagePointSet vps(net, 40, 163163);
  const PingMesh mesh(net, vps, PingConfig{});
  ColocationConfig config;
  config.filter.min_usable_sites = 25;
  const ColocationClusterer clusterer(registry, mesh, vps, config);
  const double xis[] = {0.1, 0.9};

  int checked = 0;
  for (const AsIndex isp : registry.hosting_isps()) {
    set_default_thread_count(1);
    const auto serial = clusterer.cluster_isp_multi(isp, xis);
    for (const std::size_t threads : {2u, 8u}) {
      set_default_thread_count(threads);
      const auto parallel = clusterer.cluster_isp_multi(isp, xis);
      ASSERT_EQ(parallel.size(), serial.size());
      for (std::size_t x = 0; x < serial.size(); ++x) {
        expect_identical(parallel[x], serial[x],
                         "isp " + std::to_string(isp) + " xi#" +
                             std::to_string(x) + " threads " +
                             std::to_string(threads));
      }
    }
    if (++checked >= 8) break;
  }
  EXPECT_GE(checked, 4);
}

void expect_identical_health(
    const std::map<std::string, fault::StageHealth>& a,
    const std::map<std::string, fault::StageHealth>& b,
    const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (const auto& [stage, health] : a) {
    ASSERT_TRUE(b.count(stage)) << context << " stage " << stage;
    const fault::StageHealth& other = b.at(stage);
    EXPECT_EQ(health.status, other.status) << context << " " << stage;
    EXPECT_EQ(health.dropped, other.dropped) << context << " " << stage;
    EXPECT_EQ(health.total, other.total) << context << " " << stage;
    EXPECT_EQ(health.reasons, other.reasons) << context << " " << stage;
  }
}

/// Counter name -> value map from the registry (gauges and histograms are
/// deliberately excluded: cluster.threads and the timings legitimately vary
/// with the thread count; counters never may).
std::map<std::string, std::uint64_t> counter_map() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::metrics().snapshot().counters) {
    out[name] = value;
  }
  return out;
}

constexpr std::pair<Snapshot, Methodology> kDiscoveryPairs[] = {
    {Snapshot::k2021, Methodology::k2021},
    {Snapshot::k2023, Methodology::k2023},
    {Snapshot::k2023, Methodology::k2021}};

/// Every lazy Pipeline accessor, once each, in one fixed order.
/// population() and scan_records() are not ones: they rebuild on every
/// call, so only discovery forces them here.
std::vector<std::function<void(const Pipeline&)>> stage_accessors() {
  std::vector<std::function<void(const Pipeline&)>> all;
  for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
    all.emplace_back([snapshot](const Pipeline& p) { p.registry(snapshot); });
  }
  for (const auto& [snapshot, methodology] : kDiscoveryPairs) {
    all.emplace_back([snapshot, methodology](const Pipeline& p) {
      p.discovery(snapshot, methodology);
    });
  }
  all.emplace_back([](const Pipeline& p) { p.ping_mesh(); });
  all.emplace_back([](const Pipeline& p) { p.clusterings(0.1); });
  all.emplace_back([](const Pipeline& p) { p.clusterings(0.9); });
  all.emplace_back([](const Pipeline& p) { p.ptr_store(); });
  for (const Hypergiant hg : all_hypergiants()) {
    all.emplace_back([hg](const Pipeline& p) { p.peering_study(hg); });
  }
  all.emplace_back([](const Pipeline& p) { p.demand(); });
  all.emplace_back([](const Pipeline& p) { p.capacity(); });
  return all;
}

/// The outputs of every stage but the clusterings, flattened to numbers.
std::vector<std::uint64_t> stage_outputs(const Pipeline& pipeline) {
  std::vector<std::uint64_t> out;
  for (const Snapshot snapshot : {Snapshot::k2021, Snapshot::k2023}) {
    out.push_back(pipeline.registry(snapshot).server_count());
    out.push_back(pipeline.population(snapshot).size());
    const TlsEndpoints records = pipeline.scan_records(snapshot);
    for (const TlsEndpoint& record : records.endpoints) {
      out.push_back(record.ip.value());
    }
  }
  for (const auto& [snapshot, methodology] : kDiscoveryPairs) {
    for (const auto& footprint :
         pipeline.discovery(snapshot, methodology).footprints) {
      out.push_back(footprint.isp_count());
      out.push_back(footprint.ip_count());
    }
  }
  for (std::size_t vp = 0; vp < pipeline.vantage_points().size(); ++vp) {
    out.push_back(pipeline.ping_mesh().vp_dark(vp));
  }
  out.push_back(pipeline.ptr_store().size());
  for (const Hypergiant hg : all_hypergiants()) {
    for (const auto& [isp, evidence] : pipeline.peering_study(hg)) {
      out.push_back(isp);
      out.push_back(static_cast<std::uint64_t>(evidence.status));
      out.push_back(evidence.seen_via_ixp * 4 + evidence.seen_via_pni * 2 +
                    evidence.unstable);
      out.push_back(evidence.traceroutes);
    }
  }
  for (const AsIndex isp : pipeline.internet().access_isps()) {
    out.push_back(std::bit_cast<std::uint64_t>(
        pipeline.demand().isp_peak_demand_gbps(isp)));
    out.push_back(std::bit_cast<std::uint64_t>(
        pipeline.capacity().total_transit_gbps(isp)));
  }
  return out;
}

struct PipelineRun {
  std::vector<IspClustering> xi01;
  std::vector<IspClustering> xi09;
  std::vector<std::uint64_t> stages;  // stage_outputs, when walked
  std::map<std::string, fault::StageHealth> health;
  std::map<std::string, std::uint64_t> counters;
};

/// One tiny pipeline pass on a pool of `threads`. With `callers` > 0, that
/// many threads first walk every stage accessor concurrently, each starting
/// at its own rotation of the list.
PipelineRun run_pipeline(std::size_t threads, const fault::FaultPlan& plan,
                         std::size_t callers = 0) {
  obs::metrics().reset();
  set_default_thread_count(threads);
  Pipeline pipeline(Scenario::tiny(), plan);
  const auto accessors = stage_accessors();
  std::vector<std::thread> walkers;
  for (std::size_t t = 0; t < callers; ++t) {
    walkers.emplace_back([&, t] {
      const std::size_t start = t * accessors.size() / callers;
      for (std::size_t i = 0; i < accessors.size(); ++i) {
        accessors[(start + i) % accessors.size()](pipeline);
      }
    });
  }
  for (std::thread& walker : walkers) walker.join();
  PipelineRun run;
  run.xi01 = pipeline.clusterings(0.1);
  run.xi09 = pipeline.clusterings(0.9);
  if (callers > 0) run.stages = stage_outputs(pipeline);
  run.health = pipeline.stage_health();
  run.counters = counter_map();
  set_default_thread_count(0);
  return run;
}

void expect_identical_runs(const PipelineRun& serial, const PipelineRun& other,
                           const std::string& context) {
  ASSERT_EQ(other.xi01.size(), serial.xi01.size()) << context;
  ASSERT_EQ(other.xi09.size(), serial.xi09.size()) << context;
  for (std::size_t i = 0; i < serial.xi01.size(); ++i) {
    expect_identical(other.xi01[i], serial.xi01[i],
                     context + " xi=0.1 #" + std::to_string(i));
  }
  for (std::size_t i = 0; i < serial.xi09.size(); ++i) {
    expect_identical(other.xi09[i], serial.xi09[i],
                     context + " xi=0.9 #" + std::to_string(i));
  }
  EXPECT_EQ(serial.stages, other.stages) << context;
  expect_identical_health(serial.health, other.health, context);
  // Every counter in the run report (mlab probes, filter drops, fault
  // injections, clustering progress, ...) must be thread-count invariant.
  EXPECT_EQ(serial.counters, other.counters) << context;
}

TEST_F(ParallelTest, PipelineClusteringBitIdenticalClean) {
  const fault::FaultPlan clean = fault::FaultPlan::none();
  const PipelineRun serial = run_pipeline(1, clean);
  ASSERT_FALSE(serial.xi01.empty());
  for (const std::size_t threads : {4u, 8u}) {
    const PipelineRun parallel = run_pipeline(threads, clean);
    expect_identical_runs(serial, parallel,
                          "clean threads=" + std::to_string(threads));
  }
}

TEST_F(ParallelTest, PipelineClusteringBitIdenticalUnderFaults) {
  const fault::FaultPlan plan = fault::FaultPlan::chaos().scaled_by(0.5);
  const PipelineRun serial = run_pipeline(1, plan);
  ASSERT_FALSE(serial.xi01.empty());
  const PipelineRun parallel = run_pipeline(8, plan);
  expect_identical_runs(serial, parallel, "chaos@0.5 threads=8");
}

/// What concurrent callers may legitimately change: the order in which a
/// stage's snapshots merge their health reasons, and how often a caller
/// parks on another caller's build.
void drop_call_order(PipelineRun& run) {
  for (auto& [stage, health] : run.health) std::ranges::sort(health.reasons);
  run.counters.erase("pipeline.stage_waits");
}

TEST_F(ParallelTest, ConcurrentStageCallersMatchSerial) {
  const fault::FaultPlan plan = fault::FaultPlan::chaos().scaled_by(0.5);
  PipelineRun serial = run_pipeline(1, plan, 1);
  ASSERT_FALSE(serial.xi01.empty());
  ASSERT_FALSE(serial.stages.empty());
  PipelineRun concurrent = run_pipeline(4, plan, 8);
  drop_call_order(serial);
  drop_call_order(concurrent);
  // Equal counters (every fault injection, probe and clustering tally) prove
  // each stage computed exactly once however the callers interleaved.
  expect_identical_runs(serial, concurrent, "8 callers, chaos@0.5");
}

// ------------------------------------------------- peering study fan-out --

void expect_same_evidence(const IspPeeringEvidence& got,
                          const IspPeeringEvidence& want,
                          const std::string& context) {
  EXPECT_EQ(got.isp, want.isp) << context;
  EXPECT_EQ(got.status, want.status) << context;
  EXPECT_EQ(got.seen_via_ixp, want.seen_via_ixp) << context;
  EXPECT_EQ(got.seen_via_pni, want.seen_via_pni) << context;
  EXPECT_EQ(got.traceroutes, want.traceroutes) << context;
  EXPECT_EQ(got.unstable, want.unstable) << context;
}

struct PeeringRun {
  std::map<AsIndex, IspPeeringEvidence> evidence;
  PeeringStudyOutcome outcome;
  std::uint64_t traceroutes = 0;  // counter deltas over the run
  std::uint64_t unstable = 0;
  std::uint64_t downgrades = 0;
};

PeeringRun run_peering(const PeeringStudy& study, AsIndex hg_as,
                       std::span<const AsIndex> targets,
                       const RoutingEngine& routing, std::size_t threads) {
  const auto value = [](const char* name) {
    return obs::metrics().counter(name).value();
  };
  const std::uint64_t traceroutes = value("route.traceroutes");
  const std::uint64_t unstable = value("route.unstable_targets");
  const std::uint64_t downgrades = value("route.peer_downgrades");
  set_default_thread_count(threads);
  PeeringRun run;
  run.evidence = study.run(hg_as, targets, routing, &run.outcome);
  set_default_thread_count(0);
  run.traceroutes = value("route.traceroutes") - traceroutes;
  run.unstable = value("route.unstable_targets") - unstable;
  run.downgrades = value("route.peer_downgrades") - downgrades;
  return run;
}

/// The study as one serial campaign, written against the public API: one
/// probe clock ticking across every target in order. The oracle for the
/// fan-out's prefix-sum clock offsets.
PeeringRun serial_campaign(const PeeringStudy& study,
                           const TracerouteEngine& engine, AsIndex hg_as,
                           std::span<const AsIndex> targets,
                           const RoutingEngine& routing) {
  PeeringRun run;
  std::uint64_t clock = 0;
  for (const AsIndex target : targets) {
    const RoutingTable table = routing.routes_to(target);
    const std::vector<Ipv4> destinations = study.destinations_of(target);
    std::vector<std::pair<std::size_t, bool>> first(destinations.size());
    IspPeeringEvidence aggregate;
    aggregate.isp = target;
    for (std::size_t vm = 0; vm < study.config().vm_count; ++vm) {
      for (std::size_t d = 0; d < destinations.size(); ++d) {
        const Traceroute trace = engine.trace(
            hg_as, destinations[d], table,
            mix64(study.config().seed ^ (vm + 1)), clock++);
        const IspPeeringEvidence one =
            study.classify_traceroute(trace, hg_as, target);
        ++aggregate.traceroutes;
        aggregate.seen_via_ixp |= one.seen_via_ixp;
        aggregate.seen_via_pni |= one.seen_via_pni;
        if (one.status == PeeringStatus::kPeer ||
            (one.status == PeeringStatus::kPossiblePeer &&
             aggregate.status == PeeringStatus::kNoEvidence)) {
          aggregate.status = one.status;
        }
        const std::pair<std::size_t, bool> signature{
            trace.hops.size(), trace.destination_reached};
        if (vm == 0) first[d] = signature;
        else if (first[d] != signature) aggregate.unstable = true;
      }
    }
    if (aggregate.unstable) {
      ++run.outcome.unstable_targets;
      if (aggregate.status == PeeringStatus::kPeer) {
        aggregate.status = PeeringStatus::kPossiblePeer;
        ++run.outcome.downgraded_peers;
      }
    }
    run.evidence.emplace(target, aggregate);
  }
  run.outcome.targets = targets.size();
  run.outcome.probes = clock;
  run.traceroutes = clock;
  run.unstable = run.outcome.unstable_targets;
  run.downgrades = run.outcome.downgraded_peers;
  return run;
}

void expect_identical_peering(const PeeringRun& got, const PeeringRun& want,
                              const std::string& context) {
  ASSERT_EQ(got.evidence.size(), want.evidence.size()) << context;
  for (const auto& [isp, evidence] : want.evidence) {
    ASSERT_TRUE(got.evidence.count(isp)) << context << " isp " << isp;
    expect_same_evidence(got.evidence.at(isp), evidence,
                         context + " isp " + std::to_string(isp));
  }
  EXPECT_EQ(got.outcome.targets, want.outcome.targets) << context;
  EXPECT_EQ(got.outcome.probes, want.outcome.probes) << context;
  EXPECT_EQ(got.outcome.unstable_targets, want.outcome.unstable_targets)
      << context;
  EXPECT_EQ(got.outcome.downgraded_peers, want.outcome.downgraded_peers)
      << context;
  EXPECT_EQ(got.traceroutes, want.traceroutes) << context;
  EXPECT_EQ(got.unstable, want.unstable) << context;
  EXPECT_EQ(got.downgrades, want.downgrades) << context;
}

TEST_F(ParallelTest, PeeringStudyBitIdenticalAcrossThreadCounts) {
  // Targets fan out over the pool, each on its prefix-sum slice of the
  // campaign clock. Every thread count must reproduce the serial campaign
  // field for field -- also under flaps, where the clock picks the epoch.
  const Internet net = InternetGenerator(GeneratorConfig::tiny()).generate();
  const RoutingEngine routing(net);
  const IxpRegistry registry = IxpRegistry::build(net, IxpRegistryConfig{});
  const AsIndex google = net.as_by_asn(kGoogleAsn);
  const std::vector<AsIndex> targets = net.access_isps();
  ASSERT_GE(targets.size(), 16u);
  PeeringStudyConfig config;
  config.vm_count = 6;
  config.slash24s_per_target = 2;

  TracerouteConfig flapping;
  flapping.fault_seed = 4242;
  flapping.flap_rate = 0.5;
  flapping.flap_period = 2;
  const TracerouteEngine clean(net, TracerouteConfig{});
  const TracerouteEngine flapped(net, flapping);
  for (const TracerouteEngine* engine : {&clean, &flapped}) {
    const bool flaps = engine == &flapped;
    const std::string name = flaps ? "flapped" : "clean";
    const PeeringStudy study(net, *engine, registry, config);
    const PeeringRun oracle =
        serial_campaign(study, *engine, google, targets, routing);
    if (flaps) {
      // The fixture must exercise the clock, or a wrong offset would pass.
      EXPECT_GT(oracle.outcome.unstable_targets, 0u);
      EXPECT_GT(oracle.outcome.downgraded_peers, 0u);
    } else {
      EXPECT_EQ(oracle.outcome.unstable_targets, 0u);
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      expect_identical_peering(
          run_peering(study, google, targets, routing, threads), oracle,
          name + " threads=" + std::to_string(threads));
    }
  }
}

/// A traced run's pool tasks can be adopted -- and their pool.task spans
/// closed -- a beat after the fan-out returns: wait until every submit has
/// its adoption and no pool.task span is open.
void wait_for_pool_tasks() {
  for (int i = 0; i < 2000; ++i) {
    std::size_t submits = 0;
    std::size_t adoptions = 0;
    for (const obs::FlowEvent& flow : obs::tracer().flow_events()) {
      (flow.phase == 's' ? submits : adoptions) += 1;
    }
    bool open = false;
    for (const obs::Span& span : obs::tracer().spans()) {
      if (span.name == "pool.task" && !span.closed) open = true;
    }
    if (submits == adoptions && !open) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Checks that every span whose name starts with `prefix` has `stage` on
/// its parent chain (no orphan subtrees); returns how many there are.
std::size_t expect_spans_stitch_under(const std::string& stage,
                                      const std::string& prefix) {
  wait_for_pool_tasks();
  const std::vector<obs::Span> spans = obs::tracer().spans();
  std::size_t stage_id = obs::kNoSpan;
  for (const obs::Span& span : spans) {
    if (span.name == stage) stage_id = span.id;
  }
  EXPECT_NE(stage_id, obs::kNoSpan) << stage << " span missing";

  std::size_t matched = 0;
  for (const obs::Span& span : spans) {
    if (span.name.rfind(prefix, 0) != 0) continue;
    ++matched;
    std::size_t id = span.id;
    bool reached = false;
    for (int hops = 0; hops < 64 && id != obs::kNoSpan; ++hops) {
      if (id == stage_id) {
        reached = true;
        break;
      }
      id = spans[id].parent;
    }
    EXPECT_TRUE(reached) << "orphan " << span.name << " span " << span.id;
  }
  return matched;
}

TEST_F(ParallelTest, ClusteringSpansStitchUnderPipelineStage) {
  // End-to-end span stitching: with tracing on, every cluster.* span opened
  // on a pool worker during the clustering fan-out must re-parent (through
  // the adopted pool.task spans) under the submitting pipeline.clustering
  // stage span -- no orphan subtrees in the flight recording.
  obs::set_tracing(true);
  obs::tracer().reset();
  obs::metrics().reset();
  set_default_thread_count(4);
  {
    Pipeline pipeline(Scenario::tiny());
    pipeline.clusterings(0.1);
  }
  const std::size_t cluster_spans =
      expect_spans_stitch_under("pipeline.clustering", "cluster.");
  EXPECT_GE(cluster_spans, 1u);
  obs::set_tracing(false);
  obs::tracer().reset();
  obs::metrics().reset();
}

TEST_F(ParallelTest, PeeringSpansStitchUnderPipelineStage) {
  // The peering fan-out's per-block spans, opened on pool workers, render
  // under pipeline.peering_study, one route.peering_shard_ms sample each.
  obs::set_tracing(true);
  obs::tracer().reset();
  obs::metrics().reset();
  set_default_thread_count(4);
  {
    Pipeline pipeline(Scenario::tiny());
    ASSERT_FALSE(pipeline.peering_study(Hypergiant::kGoogle).empty());
  }
  const std::size_t shard_spans =
      expect_spans_stitch_under("pipeline.peering_study", "route.peering_shard");
  EXPECT_GE(shard_spans, 2u) << "the 4-thread study ran as one block";
  EXPECT_EQ(obs::metrics().histogram("route.peering_shard_ms").count(),
            shard_spans);
  obs::set_tracing(false);
  obs::tracer().reset();
  obs::metrics().reset();
}

}  // namespace
}  // namespace repro
