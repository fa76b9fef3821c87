// The resident report service: a long-lived daemon answering the paper's
// tables and figures for arbitrary (Scenario, FaultPlan, xi) combinations
// out of warm artifacts. See docs/SERVICE.md for the query schema and the
// incremental-recompute matrix.
//
// Request/response is newline-delimited JSON, one object per line:
//
//   {"id":1,"query":"table1"}
//   {"id":2,"query":"table2","xis":[0.1,0.9],"fault":"chaos"}
//   {"query":"section421","scale":"tiny","flap_rate":0.3}
//   {"query":"stats"}          {"query":"ping"}          {"query":"shutdown"}
//
// Report queries (table1, figure1, table2, figure2, section421, section43)
// answer {"id":...,"ok":true,"query":...,"cached":bool,"ms":...,
// "render":"..."} where `render` is byte-identical to the corresponding
// examples/full_report section body for the same world (tests/test_serve.cpp
// enforces this for clean and chaos plans). Errors -- malformed JSON,
// unknown fields, out-of-range xi, oversized lines -- always produce
// {"ok":false,"error":"..."}; handle_line() never throws, so one bad
// request can never kill the daemon loop.
//
// Three layers of reuse, coldest to warmest:
//   1. store artifacts (the scans and the world's xi-independent OPTICS
//      plots, so any xi is an in-memory extraction) via the store's
//      single-flight load_or_compute,
//   2. resident pipelines (in-process stage caches) via ArtifactResolver,
//   3. rendered reports, keyed by (measurement digest, full plan JSON,
//      query, xi set) in a bounded LRU with single-flight compute --
//      serve.hit / serve.miss / serve.inflight_waits count them.
// Every query records serve.query_ms (always, tracing on or off) and a
// "serve.query" span so traced runs show queries on the Perfetto timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/single_flight_lru.h"
#include "serve/resolver.h"

namespace repro::serve {

struct ServiceConfig {
  /// Shared artifact store; nullptr = no persistence (resident pipelines
  /// are then the only warm layer).
  std::shared_ptr<store::ArtifactStore> artifacts;
  /// Scale used when a request omits "scale".
  Scale default_scale = Scale::kTiny;
  /// Worker threads for the Unix-socket accept loop (0 = default count).
  std::size_t workers = 0;
  /// Requests longer than this are rejected before parsing.
  std::size_t max_request_bytes = 1 << 20;
  /// LRU bound on resident pipelines.
  std::size_t max_resident_pipelines = 8;
  /// LRU bound on cached rendered reports.
  std::size_t max_cached_renders = 1024;
};

/// A parsed, validated report query.
struct QueryRequest {
  /// Raw JSON for the echoed "id" (already quoted/escaped if a string);
  /// empty = absent.
  std::string id;
  std::string query;
  Scale scale = Scale::kTiny;
  fault::FaultPlan plan = fault::FaultPlan::none();
  /// For table2/figure2; validated into (0, 1).
  std::vector<double> xis;
};

struct QueryResponse {
  /// The full response line (no trailing newline), always valid JSON.
  std::string json;
  /// Raw render text for report queries (empty for admin queries and
  /// errors); what the byte-identity tests and `--render-out` diff.
  std::string render;
  bool ok = false;
  bool cached = false;
  double ms = 0.0;
};

class ReportService {
 public:
  explicit ReportService(ServiceConfig config);

  /// Parses and executes one request line. Never throws.
  QueryResponse handle_line(std::string_view line);

  /// Executes an already-parsed request (the load bench bypasses parsing).
  /// Never throws.
  QueryResponse execute(const QueryRequest& request);

  /// Sequential request loop over a stream pair: one response line per
  /// request line, flushed after each, until EOF or a "shutdown" query.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Unix-socket daemon: binds `path` (unlinking any stale socket), then
  /// accepts connections until a "shutdown" query arrives, dispatching each
  /// connection's request loop to a thread pool (config.workers). Returns
  /// normally on shutdown; throws repro::Error when the socket cannot be
  /// bound. Responses are ndjson exactly like serve_stream.
  void serve_unix_socket(const std::string& path);

  /// Set by a "shutdown" query; serve loops exit at the next boundary.
  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  ArtifactResolver& resolver() noexcept { return resolver_; }
  const ServiceConfig& config() const noexcept { return config_; }

  ReportService(const ReportService&) = delete;
  ReportService& operator=(const ReportService&) = delete;

 private:
  /// Render-cache key over (world, query, xis).
  static std::uint64_t render_key(const QueryRequest& request);
  /// Computes the render text for a report query (the cache-miss path).
  std::string compute_render(const QueryRequest& request);
  /// The "stats" admin payload (store occupancy + serve counters).
  std::string stats_json() const;

  ServiceConfig config_;
  ArtifactResolver resolver_;
  std::atomic<bool> shutdown_{false};
  /// Values are shared so eviction cannot invalidate a response being
  /// copied out.
  SingleFlightLru<std::shared_ptr<const std::string>> renders_;
};

}  // namespace repro::serve
