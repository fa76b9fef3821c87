// The resident report service's contract (ctest -L serve):
//   * warm service renders are byte-identical to batch pipeline renders for
//     the same world -- clean AND under a chaos fault plan -- and a repeat
//     query is served from the render cache without changing a byte;
//   * recompute is incremental: an xi-only change against a warm store
//     re-extracts clusters from the stored OPTICS plots in memory (zero
//     misses, zero saves, zero recomputes), and a plan change that
//     preserves measurement_json() is served entirely warm too;
//   * >= 8 concurrent readers over one shared store all get correct answers
//     (the TSan tier of scripts/check.sh runs this label);
//   * the daemon loop survives hostile input -- malformed, truncated,
//     duplicate-key, oversized and absurdly nested JSON all produce
//     structured {"ok":false,...} responses, never a dead loop;
//   * the ndjson protocol works over both serve_stream and a Unix socket,
//     and "shutdown" stops either loop at the next boundary.
#include "serve/service.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyses.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "serve/resolver.h"
#include "store/artifact_store.h"

namespace repro {
namespace {

namespace fs = std::filesystem;

using serve::ArtifactResolver;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::ReportService;
using serve::ServiceConfig;

/// Fresh store root per test, removed on teardown. gtest_discover_tests
/// runs every TEST in its own process, so the process-global serve.* and
/// store.* counters start from zero in each one.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("repro-serve-test-" + std::to_string(::getpid()) + "-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::shared_ptr<store::ArtifactStore> make_store() const {
    store::StoreConfig config;
    config.root = (root_ / "store").string();
    return std::make_shared<store::ArtifactStore>(config);
  }

  ServiceConfig service_config() const {
    ServiceConfig config;
    config.artifacts = make_store();
    config.default_scale = Scale::kTiny;
    return config;
  }

  fs::path root_;
};

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

/// Every report query's expected render, computed by the batch path the
/// examples use: one storeless Pipeline per world, render(<study>(...)).
struct BatchRenders {
  std::string table1, figure1, table2, figure2, section421, section43;
};

BatchRenders batch_renders(const fault::FaultPlan& plan,
                           const std::vector<double>& xis) {
  const Pipeline pipeline(Scenario::at_scale(Scale::kTiny), plan, nullptr);
  BatchRenders out;
  out.table1 = render(table1_study(pipeline));
  out.figure1 = render(figure1_study(pipeline));
  out.table2 = render(table2_study(pipeline, xis));
  out.figure2 = render(figure2_study(pipeline, xis));
  out.section421 = render(section421_study(pipeline));
  out.section43 = render(section43_study(pipeline));
  return out;
}

QueryRequest report_request(const std::string& query,
                            const fault::FaultPlan& plan,
                            std::vector<double> xis = {}) {
  QueryRequest request;
  request.query = query;
  request.scale = Scale::kTiny;
  request.plan = plan;
  request.xis = std::move(xis);
  return request;
}

void expect_byte_identical_world(ServeTest* fixture, ReportService& service,
                                 const fault::FaultPlan& plan) {
  (void)fixture;
  const std::vector<double> xis = {0.1, 0.9};
  const BatchRenders expected = batch_renders(plan, xis);
  const std::pair<const char*, const std::string*> cases[] = {
      {"table1", &expected.table1},       {"figure1", &expected.figure1},
      {"table2", &expected.table2},       {"figure2", &expected.figure2},
      {"section421", &expected.section421}, {"section43", &expected.section43},
  };
  for (const auto& [query, body] : cases) {
    const bool takes_xis = std::string_view(query) == "table2" ||
                           std::string_view(query) == "figure2";
    const QueryRequest request =
        report_request(query, plan, takes_xis ? xis : std::vector<double>{});
    const QueryResponse first = service.execute(request);
    ASSERT_TRUE(first.ok) << query << ": " << first.json;
    EXPECT_EQ(first.render, *body) << query << " differs from batch render";
    // The repeat must come from the render cache, byte-identical.
    const QueryResponse again = service.execute(request);
    ASSERT_TRUE(again.ok) << query;
    EXPECT_TRUE(again.cached) << query << " repeat was not cached";
    EXPECT_EQ(again.render, *body) << query << " cached render differs";
  }
  EXPECT_GE(counter("serve.hit"), 6u);
}

TEST_F(ServeTest, WarmRendersMatchBatchClean) {
  ReportService service(service_config());
  expect_byte_identical_world(this, service, fault::FaultPlan::none());
}

TEST_F(ServeTest, WarmRendersMatchBatchUnderChaos) {
  ReportService service(service_config());
  expect_byte_identical_world(this, service, fault::FaultPlan::chaos());
}

TEST_F(ServeTest, XiOnlyChangeRecomputesOnlyClusterExtraction) {
  // Warm the store with the standard xi batch through service A.
  {
    ReportService service(service_config());
    const QueryResponse cold = service.execute(
        report_request("table2", fault::FaultPlan::none(), {0.1, 0.9}));
    ASSERT_TRUE(cold.ok) << cold.json;
    EXPECT_FALSE(cold.cached);
  }

  // A fresh service over a fresh store instance on the same root: per-
  // instance StoreStats start at zero, so the deltas below are exact.
  ServiceConfig config = service_config();
  const std::shared_ptr<store::ArtifactStore> artifacts = config.artifacts;
  ReportService service(std::move(config));
  const QueryResponse incremental = service.execute(
      report_request("table2", fault::FaultPlan::none(), {0.3}));
  ASSERT_TRUE(incremental.ok) << incremental.json;

  const store::StoreStats stats = artifacts->stats();
  // A new xi is an extraction from the stored plots: nothing goes cold,
  // nothing is published, nothing is recomputed.
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.saved, 0u);
  EXPECT_EQ(stats.recomputed, 0u);
  // The scans and the plot batch came from the store.
  EXPECT_GE(stats.hits, 2u);

  // Cross-check against the batch answer for the same xi.
  const Pipeline batch(Scenario::at_scale(Scale::kTiny),
                       fault::FaultPlan::none(), nullptr);
  const std::vector<double> xis = {0.3};
  EXPECT_EQ(incremental.render, render(table2_study(batch, xis)));
}

TEST_F(ServeTest, MeasurementPreservingPlanChangeServesEntirelyWarm) {
  // Warm the clean world.
  std::string clean_table1, clean_table2;
  {
    ReportService service(service_config());
    const QueryResponse t1 =
        service.execute(report_request("table1", fault::FaultPlan::none()));
    const QueryResponse t2 = service.execute(
        report_request("table2", fault::FaultPlan::none(), {0.1, 0.9}));
    ASSERT_TRUE(t1.ok && t2.ok);
    clean_table1 = t1.render;
    clean_table2 = t2.render;
  }

  // A route-flap-only plan shares measurement_json() with clean, so its
  // world digest -- and therefore every persisted artifact -- is identical.
  fault::FaultPlan flappy = fault::FaultPlan::none();
  flappy.route.flap_rate = 0.3;
  ASSERT_EQ(flappy.measurement_json(), fault::FaultPlan::none().measurement_json());

  ServiceConfig config = service_config();
  const std::shared_ptr<store::ArtifactStore> artifacts = config.artifacts;
  ReportService service(std::move(config));
  const QueryResponse t1 = service.execute(report_request("table1", flappy));
  const QueryResponse t2 =
      service.execute(report_request("table2", flappy, {0.1, 0.9}));
  ASSERT_TRUE(t1.ok && t2.ok);

  const store::StoreStats stats = artifacts->stats();
  EXPECT_EQ(stats.misses, 0u) << "a measurement-preserving plan went cold";
  EXPECT_EQ(stats.saved, 0u);
  EXPECT_EQ(stats.recomputed, 0u);
  EXPECT_GT(stats.hits, 0u);

  // Measurement-derived reports are byte-identical to the clean world; only
  // the live route/rdns engines (section421 et al) may differ.
  EXPECT_EQ(t1.render, clean_table1);
  EXPECT_EQ(t2.render, clean_table2);

  // And the resolver still treats it as a distinct resident world.
  EXPECT_NE(ArtifactResolver::world_key(Scenario::at_scale(Scale::kTiny),
                                        fault::FaultPlan::none()),
            ArtifactResolver::world_key(Scenario::at_scale(Scale::kTiny),
                                        flappy));
}

TEST_F(ServeTest, ConcurrentReadersShareOneService) {
  ReportService service(service_config());
  constexpr std::size_t kReaders = 8;
  constexpr std::size_t kQueriesPerReader = 6;
  const fault::FaultPlan plans[] = {fault::FaultPlan::none(),
                                    fault::FaultPlan::chaos().scaled_by(0.5)};
  // Discovery, plots, peering and capacity all compute side by side on the
  // resident pipelines of the two worlds.
  const char* queries[] = {"table1", "figure1", "table2", "section421",
                           "section43"};

  std::vector<std::string> failures(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kQueriesPerReader; ++i) {
        const std::size_t pick = (i * 7 + t) % 10;
        const char* query = queries[pick % 5];
        const QueryRequest request = report_request(
            query, plans[pick / 5],
            std::string_view(query) == "table2" ? std::vector<double>{0.1, 0.9}
                                                : std::vector<double>{});
        const QueryResponse response = service.execute(request);
        if (!response.ok) failures[t] = response.json;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");

  // Single-flight held at both layers: two worlds were built, no more, and
  // the storm was overwhelmingly warm.
  EXPECT_EQ(counter("serve.pipeline_built"), 2u);
  EXPECT_GT(counter("serve.hit") + counter("serve.inflight_waits"), 0u);
  EXPECT_EQ(counter("serve.errors"), 0u);
}

TEST_F(ServeTest, HostileInputNeverKillsTheLoop) {
  ServiceConfig config;  // no store: parse errors never touch a pipeline
  config.artifacts = nullptr;
  ReportService service(std::move(config));

  std::string nested(300, '[');
  nested += std::string(300, ']');
  const std::string hostile[] = {
      "not json at all",
      "{\"query\":\"table1\"",                     // truncated
      "{\"query\":\"table1\",\"query\":\"t\"}",    // duplicate key
      "[\"query\",\"table1\"]",                    // non-object root
      "{\"query\":\"nope\"}",                      // unknown query
      "{\"query\":\"table1\",\"scale\":\"huge\"}", // unknown scale
      "{\"query\":\"table1\",\"bogus\":1}",        // unknown field
      "{\"query\":\"table2\",\"xi\":1.5}",         // xi out of range
      "{\"query\":\"table2\",\"xi\":\"x\"}",       // xi wrong type
      "{\"query\":\"table2\",\"xi\":0.5,\"xis\":[0.5]}",  // both forms
      "{\"query\":\"table1\",\"xi\":0.5}",         // xi on a non-xi query
      "{\"query\":\"table1\",\"fault_seed\":-1}",    // negative seed
      "{\"query\":\"table1\",\"fault_seed\":1.5}",   // fractional seed
      "{\"query\":\"table1\",\"fault_seed\":1e30}",  // seed past 2^64
      "{\"query\":\"ping\",\"id\":[1]}",           // unsupported id type
      nested,                                      // past the depth cap
      std::string(2 << 20, 'x'),                   // oversized line
  };
  for (const std::string& line : hostile) {
    const QueryResponse response = service.handle_line(line);
    EXPECT_FALSE(response.ok) << line.substr(0, 60);
    EXPECT_NE(response.json.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(response.json.find("\"error\":"), std::string::npos);
  }
  EXPECT_EQ(counter("serve.errors"), std::size(hostile));

  // The daemon is still alive and answering.
  const QueryResponse ping = service.handle_line("{\"query\":\"ping\"}");
  EXPECT_TRUE(ping.ok);
  EXPECT_NE(ping.json.find("\"scale\":\"tiny\""), std::string::npos);
  EXPECT_FALSE(service.shutdown_requested());

  // The same corpus through serve_stream: one response line per request
  // line, and the loop reaches the trailing ping.
  std::string input;
  for (const std::string& line : hostile) input += line + "\n";
  input += "{\"id\":7,\"query\":\"ping\"}\n";
  std::istringstream in(input);
  std::ostringstream out;
  service.serve_stream(in, out);
  std::size_t lines = 0;
  for (const char c : out.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, std::size(hostile) + 1);
  EXPECT_NE(out.str().find("{\"id\":7,\"ok\":true,\"query\":\"ping\""),
            std::string::npos);
}

TEST_F(ServeTest, StreamServesStatsAndStopsOnShutdown) {
  ServiceConfig config;
  config.artifacts = make_store();
  ReportService service(std::move(config));

  std::istringstream in(
      "{\"id\":\"a\",\"query\":\"ping\"}\n"
      "\n"
      "{\"id\":\"b\",\"query\":\"stats\"}\n"
      "{\"id\":\"c\",\"query\":\"shutdown\"}\n"
      "{\"id\":\"d\",\"query\":\"ping\"}\n");
  std::ostringstream out;
  service.serve_stream(in, out);

  const std::string text = out.str();
  EXPECT_NE(text.find("{\"id\":\"a\",\"ok\":true"), std::string::npos);
  EXPECT_NE(text.find("\"serve\":{"), std::string::npos);
  EXPECT_NE(text.find("\"store\":{"), std::string::npos);
  EXPECT_NE(text.find("\"query_ms\":{"), std::string::npos);
  EXPECT_NE(text.find("{\"id\":\"c\",\"ok\":true"), std::string::npos);
  // The loop stopped at the shutdown boundary: "d" was never served.
  EXPECT_EQ(text.find("\"id\":\"d\""), std::string::npos);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST_F(ServeTest, UnixSocketRoundTrip) {
  ServiceConfig config;
  config.artifacts = nullptr;
  config.workers = 2;
  ReportService service(std::move(config));

  const std::string path = (root_ / "serve.sock").string();
  fs::create_directories(root_);
  std::thread daemon([&]() { service.serve_unix_socket(path); });

  // Wait for the socket to be bound and connectable.
  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(fd, 0) << "could not connect to " << path;

  const std::string request =
      "{\"id\":1,\"query\":\"ping\"}\n"
      "{\"id\":2,\"query\":\"bogus\"}\n"
      "{\"id\":3,\"query\":\"shutdown\"}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);

  std::string reply;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  daemon.join();

  EXPECT_NE(reply.find("{\"id\":1,\"ok\":true,\"query\":\"ping\""),
            std::string::npos);
  // A request that fails validation still gets a structured error line
  // (the id may be dropped when parsing aborts before reaching it).
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(reply.find("unknown query 'bogus'"), std::string::npos);
  EXPECT_NE(reply.find("{\"id\":3,\"ok\":true,\"query\":\"shutdown\""),
            std::string::npos);
  EXPECT_TRUE(service.shutdown_requested());
  EXPECT_FALSE(fs::exists(path)) << "socket file not cleaned up";
}

TEST_F(ServeTest, ResolverBoundsResidencyAndRenderCacheEvicts) {
  // Pipelines are lazy, so residency mechanics are cheap to exercise: no
  // stage computes until a render asks for it.
  ArtifactResolver resolver(nullptr, /*max_resident=*/1);
  const Scenario tiny = Scenario::at_scale(Scale::kTiny);
  const std::shared_ptr<Pipeline> clean =
      resolver.pipeline(tiny, fault::FaultPlan::none());
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(resolver.resident_count(), 1u);
  // Warm repeat: the same instance comes back.
  EXPECT_EQ(resolver.pipeline(tiny, fault::FaultPlan::none()).get(),
            clean.get());

  const std::shared_ptr<Pipeline> chaos =
      resolver.pipeline(tiny, fault::FaultPlan::chaos());
  EXPECT_EQ(resolver.resident_count(), 1u) << "LRU bound not enforced";
  EXPECT_EQ(counter("serve.pipeline_evicted"), 1u);
  // The clean world was evicted; re-resolving builds a fresh instance while
  // the old shared_ptr stays valid for in-flight readers.
  const std::shared_ptr<Pipeline> rebuilt =
      resolver.pipeline(tiny, fault::FaultPlan::none());
  EXPECT_NE(rebuilt.get(), clean.get());
  EXPECT_EQ(clean->scenario().scale, Scale::kTiny);
  EXPECT_NE(chaos, nullptr);

  // Render-cache LRU: with room for one render, alternating queries evict
  // each other and the repeat is a recompute, not a cache hit.
  ServiceConfig config = service_config();
  config.max_cached_renders = 1;
  ReportService service(std::move(config));
  const QueryRequest table1 =
      report_request("table1", fault::FaultPlan::none());
  const QueryRequest figure1 =
      report_request("figure1", fault::FaultPlan::none());
  ASSERT_TRUE(service.execute(table1).ok);
  ASSERT_TRUE(service.execute(figure1).ok);
  const QueryResponse repeat = service.execute(table1);
  ASSERT_TRUE(repeat.ok);
  EXPECT_FALSE(repeat.cached) << "evicted render reported as cached";
  EXPECT_GE(counter("serve.render_evicted"), 2u);
}

}  // namespace
}  // namespace repro
