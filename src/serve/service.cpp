#include "serve/service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "core/analyses.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/artifact_store.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace repro::serve {

namespace {

/// The report queries the service answers; "stats"/"ping"/"shutdown" are
/// admin queries handled separately.
constexpr const char* kReportQueries[] = {"table1",     "figure1", "table2",
                                          "figure2",    "section421",
                                          "section43"};

bool is_report_query(std::string_view name) {
  for (const char* q : kReportQueries) {
    if (name == q) return true;
  }
  return false;
}

bool takes_xis(std::string_view name) {
  return name == "table2" || name == "figure2";
}

double finite_number(const obs::JsonValue& value, const char* field) {
  if (!value.is_number()) {
    throw Error(std::string(field) + " must be a number");
  }
  const double v = value.number();
  if (!std::isfinite(v)) {
    throw Error(std::string(field) + " must be finite");
  }
  return v;
}

double rate_in_unit(const obs::JsonValue& value, const char* field) {
  const double v = finite_number(value, field);
  if (v < 0.0 || v > 1.0) {
    throw Error(std::string(field) + " outside [0, 1]");
  }
  return v;
}

/// A seed must be an integer the u64 cast can represent: casting a negative
/// or out-of-range double is undefined, and a fraction would be truncated.
std::uint64_t seed_in_range(const obs::JsonValue& value, const char* field) {
  const double v = finite_number(value, field);
  if (!(v >= 0.0 && v < 0x1p64) || v != std::floor(v)) {
    throw Error(std::string(field) + " must be an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(v);
}

double xi_in_range(const obs::JsonValue& value) {
  const double v = finite_number(value, "xi");
  if (!(v > 0.0 && v < 1.0)) throw Error("xi outside (0, 1)");
  return v;
}

/// Echo-ready JSON for the request id: numbers and strings pass through,
/// anything else is rejected (ids must be cheap to reflect verbatim).
std::string id_json(const obs::JsonValue& value) {
  if (value.is_number()) return obs::json_number(value.number());
  if (value.is_string()) {
    return "\"" + obs::json_escape(value.str()) + "\"";
  }
  throw Error("id must be a number or string");
}

std::string error_json(const std::string& id, std::string_view message) {
  std::string out = "{";
  if (!id.empty()) out += "\"id\":" + id + ",";
  out += "\"ok\":false,\"error\":\"";
  out += obs::json_escape(message);
  out += "\"}";
  return out;
}

/// Parses one request object into a validated QueryRequest. Throws
/// repro::Error (including ParseError from parse_json) on anything invalid;
/// handle_line turns those into structured error responses.
QueryRequest parse_request(std::string_view line, Scale default_scale) {
  const obs::JsonValue doc = obs::parse_json(line);
  if (!doc.is_object()) throw Error("request must be a JSON object");

  QueryRequest request;
  request.scale = default_scale;
  bool have_xi = false;
  bool have_xis = false;
  for (const auto& [key, value] : doc.object()) {
    if (key == "id") {
      request.id = id_json(value);
    } else if (key == "query") {
      if (!value.is_string()) throw Error("query must be a string");
      request.query = value.str();
    } else if (key == "scale") {
      if (!value.is_string()) throw Error("scale must be a string");
      const auto parsed = parse_scale(value.str());
      if (!parsed.has_value()) {
        throw Error("unknown scale '" + value.str() + "'");
      }
      request.scale = *parsed;
    } else if (key == "xi") {
      have_xi = true;
      request.xis = {xi_in_range(value)};
    } else if (key == "xis") {
      have_xis = true;
      if (!value.is_array() || value.size() == 0) {
        throw Error("xis must be a non-empty array");
      }
      request.xis.clear();
      for (const obs::JsonValue& entry : value.array()) {
        request.xis.push_back(xi_in_range(entry));
      }
    } else if (key == "fault") {
      if (value.is_string()) {
        if (value.str() == "none") {
          request.plan = fault::FaultPlan::none();
        } else if (value.str() == "chaos") {
          request.plan = fault::FaultPlan::chaos();
        } else {
          throw Error("fault must be \"none\", \"chaos\", or an intensity");
        }
      } else {
        request.plan = fault::FaultPlan::chaos().scaled_by(
            finite_number(value, "fault"));
      }
    } else if (key == "fault_seed") {
      request.plan.seed = seed_in_range(value, "fault_seed");
    } else if (key == "flap_rate") {
      request.plan.route.flap_rate = rate_in_unit(value, "flap_rate");
    } else if (key == "missing_ptr_rate") {
      request.plan.rdns.missing_ptr_rate =
          rate_in_unit(value, "missing_ptr_rate");
    } else if (key == "store_corrupt_rate") {
      request.plan.store.corrupt_rate =
          rate_in_unit(value, "store_corrupt_rate");
    } else {
      throw Error("unknown field '" + key + "'");
    }
  }

  if (have_xi && have_xis) throw Error("give xi or xis, not both");
  if (request.query.empty()) throw Error("missing query");
  const bool admin = request.query == "stats" || request.query == "ping" ||
                     request.query == "shutdown";
  if (!admin && !is_report_query(request.query)) {
    throw Error("unknown query '" + request.query + "'");
  }
  if ((have_xi || have_xis) && !takes_xis(request.query)) {
    throw Error("query '" + request.query + "' takes no xi");
  }
  if (takes_xis(request.query) && request.xis.empty()) {
    request.xis = {0.1, 0.9};  // the paper's standard settings
  }
  // Clamp anything representable-but-degenerate the same way from_env does.
  request.plan = request.plan.sanitized();
  return request;
}

std::string histogram_json(const obs::Histogram& h) {
  return "{\"count\":" + std::to_string(h.count()) +
         ",\"p50\":" + obs::json_number(h.p50()) +
         ",\"p90\":" + obs::json_number(h.p90()) +
         ",\"p99\":" + obs::json_number(h.p99()) + "}";
}

}  // namespace

ReportService::ReportService(ServiceConfig config)
    : config_(std::move(config)),
      resolver_(config_.artifacts, config_.max_resident_pipelines),
      renders_(config_.max_cached_renders,
               {.hit = "serve.hit",
                .inflight_wait = "serve.inflight_waits",
                .evicted = "serve.render_evicted"}) {}

std::uint64_t ReportService::render_key(const QueryRequest& request) {
  store::Fnv1a h;
  h.mix(measurement_digest(Scenario::at_scale(request.scale)))
      .mix(request.plan.to_json())
      .mix(std::string_view(request.query));
  for (const double xi : request.xis) h.mix(xi_key(xi));
  return h.digest();
}

std::string ReportService::compute_render(const QueryRequest& request) {
  const Scenario scenario = Scenario::at_scale(request.scale);
  const std::shared_ptr<Pipeline> pipeline =
      resolver_.pipeline(scenario, request.plan);
  const std::span<const double> xis(request.xis);
  if (request.query == "table1") return render(table1_study(*pipeline));
  if (request.query == "figure1") return render(figure1_study(*pipeline));
  if (request.query == "table2") {
    return render(table2_study(*pipeline, xis));
  }
  if (request.query == "figure2") {
    return render(figure2_study(*pipeline, xis));
  }
  if (request.query == "section421") {
    return render(section421_study(*pipeline));
  }
  if (request.query == "section43") return render(section43_study(*pipeline));
  throw Error("unknown query '" + request.query + "'");  // unreachable
}

std::string ReportService::stats_json() const {
  std::string out = "\"serve\":{";
  const auto c = [](const char* name) {
    return std::to_string(obs::metrics().counter(name).value());
  };
  out += "\"queries\":" + c("serve.queries") + ",\"hit\":" + c("serve.hit") +
         ",\"miss\":" + c("serve.miss") +
         ",\"inflight_waits\":" + c("serve.inflight_waits") +
         ",\"errors\":" + c("serve.errors") +
         ",\"pipeline_hit\":" + c("serve.pipeline_hit") +
         ",\"pipeline_built\":" + c("serve.pipeline_built");
  out += ",\"renders_cached\":" + std::to_string(renders_.size());
  out += ",\"pipelines_resident\":" +
         std::to_string(resolver_.resident_count());
  out += ",\"query_ms\":" +
         histogram_json(obs::metrics().histogram("serve.query_ms"));
  out += "}";
  if (const store::ArtifactStore* artifacts = resolver_.artifact_store()) {
    out += ",\"store\":" + store::occupancy_json(*artifacts);
  } else {
    out += ",\"store\":null";
  }
  return out;
}

QueryResponse ReportService::execute(const QueryRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  obs::ScopedSpan span("serve.query");
  obs::metrics().counter("serve.queries").add(1);
  QueryResponse response;

  const auto elapsed_ms = [&start]() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto finish_line = [&](std::string body) {
    response.ms = elapsed_ms();
    // Recorded directly (not via ScopedTimer, which only records when
    // tracing is on): the p50/p99 SLO must be measurable in production
    // mode, tracing off.
    obs::metrics().histogram("serve.query_ms").record(response.ms);
    std::string out = "{";
    if (!request.id.empty()) out += "\"id\":" + request.id + ",";
    out += "\"ok\":true,\"query\":\"" + request.query + "\"" + body + "}";
    response.json = std::move(out);
    response.ok = true;
  };

  try {
    if (request.query == "ping") {
      finish_line(",\"scale\":\"" +
                  std::string(to_string(config_.default_scale)) + "\"");
      return response;
    }
    if (request.query == "shutdown") {
      shutdown_.store(true, std::memory_order_release);
      finish_line("");
      return response;
    }
    if (request.query == "stats") {
      finish_line("," + stats_json());
      return response;
    }
    // A thread parked on another's render of this query wakes to a hit.
    response.render = *renders_.get(
        render_key(request),
        [&] {
          obs::metrics().counter("serve.miss").add(1);
          return std::make_shared<const std::string>(compute_render(request));
        },
        &response.cached);
    const double ms = elapsed_ms();
    response.ms = ms;
    obs::metrics().histogram("serve.query_ms").record(ms);
    char ms_text[64];
    std::snprintf(ms_text, sizeof(ms_text), "%.3f", ms);
    std::string out = "{";
    if (!request.id.empty()) out += "\"id\":" + request.id + ",";
    out += "\"ok\":true,\"query\":\"" + request.query + "\",\"cached\":";
    out += response.cached ? "true" : "false";
    out += ",\"ms\":";
    out += ms_text;
    out += ",\"render\":\"" + obs::json_escape(response.render) + "\"}";
    response.json = std::move(out);
    response.ok = true;
    return response;
  } catch (const std::exception& error) {
    obs::metrics().counter("serve.errors").add(1);
    response.ok = false;
    response.render.clear();
    response.ms = elapsed_ms();
    obs::metrics().histogram("serve.query_ms").record(response.ms);
    response.json = error_json(request.id, error.what());
    return response;
  }
}

QueryResponse ReportService::handle_line(std::string_view line) {
  if (line.size() > config_.max_request_bytes) {
    // Reject before parsing: an adversarially huge line must cost O(1).
    obs::metrics().counter("serve.queries").add(1);
    obs::metrics().counter("serve.errors").add(1);
    QueryResponse response;
    response.json = error_json(
        "", "request too large (" + std::to_string(line.size()) + " > " +
                std::to_string(config_.max_request_bytes) + " bytes)");
    return response;
  }
  QueryRequest request;
  try {
    request = parse_request(line, config_.default_scale);
  } catch (const std::exception& error) {
    obs::metrics().counter("serve.queries").add(1);
    obs::metrics().counter("serve.errors").add(1);
    QueryResponse response;
    response.json = error_json("", error.what());
    return response;
  }
  return execute(request);
}

void ReportService::serve_stream(std::istream& in, std::ostream& out) {
  // Sequential by design: stdio mode is the scriptable/debuggable path
  // (responses land in request order), concurrency comes from the socket
  // mode and from in-process callers sharing one service.
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    const QueryResponse response = handle_line(line);
    out << response.json << '\n' << std::flush;
  }
}

void ReportService::serve_unix_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(listener >= 0, "socket() failed for " + path);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    ::close(listener);
    throw Error("cannot bind/listen on " + path);
  }

  {
    // Connection handlers run on this local pool; its destructor joins
    // them, so the daemon never returns with a handler mid-response.
    ThreadPool pool(config_.workers > 0 ? config_.workers
                                        : default_thread_count());
    while (!shutdown_requested()) {
      const int conn = ::accept(listener, nullptr, nullptr);
      if (conn < 0) {
        if (shutdown_requested()) break;
        if (errno == EINTR) continue;
        break;  // listener broken: stop accepting, drain handlers
      }
      if (shutdown_requested()) {
        ::close(conn);
        break;
      }
      pool.submit([this, conn, listener]() {
        std::string buffer;
        char chunk[4096];
        for (;;) {
          const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
          if (n <= 0) break;
          buffer.append(chunk, static_cast<std::size_t>(n));
          std::size_t newline;
          while ((newline = buffer.find('\n')) != std::string::npos) {
            const std::string line = buffer.substr(0, newline);
            buffer.erase(0, newline + 1);
            if (line.empty()) continue;
            const QueryResponse response = handle_line(line);
            std::string out = response.json + "\n";
            std::size_t sent = 0;
            while (sent < out.size()) {
              const ssize_t wrote = ::send(conn, out.data() + sent,
                                           out.size() - sent, MSG_NOSIGNAL);
              if (wrote <= 0) break;
              sent += static_cast<std::size_t>(wrote);
            }
          }
          if (shutdown_requested()) {
            // Unblock the accept loop so the daemon can exit.
            ::shutdown(listener, SHUT_RDWR);
            break;
          }
        }
        ::close(conn);
      });
    }
  }
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace repro::serve
