// Shared plumbing for the table/figure harnesses: scenario selection (the
// paper scale by default, overridable for quick runs via REPRO_SCALE), a
// monotonic stopwatch for stage reporting, and the machine-readable run
// artifacts every harness emits:
//   * bench_output/BENCH_<name>.json -- one JSON line per run (steady-clock
//     seconds, scale, wall-clock unix_ms, peak_rss_mb from the resource
//     sampler's max or the largest forked child's, and the host stamp
//     hw_threads + simd_level + cpu_model), consumable by trend tooling;
//     directory overridable via REPRO_BENCH_OUT. The same line is appended
//     to bench_output/HISTORY.jsonl so `repro-bench diff/trend` can compare
//     runs over time (the history file is local-only, see .gitignore).
//   * run_report.json -- the span tree + metrics registry (+ resource
//     sampler series), written when REPRO_TRACE=1 (path overridable via
//     REPRO_TRACE_OUT); the per-stage timing table is also printed.
//   * trace.json -- Perfetto/chrome://tracing trace of the same run,
//     written when REPRO_TRACE=1 (path overridable via REPRO_TRACE_EVENTS).
// print_header() also starts the background resource sampler when
// REPRO_SAMPLE_HZ is set (or by default under REPRO_TRACE=1).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/analyses.h"
#include "core/pipeline.h"
#include "obs/json.h"
#include "obs/perfetto.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/trend.h"
#include "util/simd.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace repro::bench {

/// Scale from the REPRO_SCALE environment variable: any spelling
/// parse_scale accepts ("tiny", "small", "paper", "10x"); paper when unset
/// or unrecognized.
inline Scale scale_from_env() {
  const char* scale = std::getenv("REPRO_SCALE");
  if (scale == nullptr) return Scale::kPaper;
  return parse_scale(scale).value_or(Scale::kPaper);
}

/// Scenario at scale_from_env(), warning when REPRO_SCALE is unrecognized.
inline Scenario scenario_from_env() {
  const char* scale = std::getenv("REPRO_SCALE");
  if (scale != nullptr && !parse_scale(scale).has_value()) {
    std::fprintf(stderr, "unknown REPRO_SCALE '%s', using paper\n", scale);
  }
  return Scenario::at_scale(scale_from_env());
}

/// The scale a harness runs at, as stamped on its header and BENCH line.
inline std::string scale_name() { return std::string(to_string(scale_from_env())); }

/// Monotonic stopwatch (steady_clock: immune to NTP steps and wall-clock
/// adjustments mid-benchmark).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// `scale` overrides the stamped scale (harnesses that run several).
inline void print_header(const char* title,
                         const std::string& scale = scale_name()) {
  std::printf("==============================================================\n");
  std::printf("%s   [scale: %s]\n", title, scale.c_str());
  std::printf("==============================================================\n\n");
  obs::sampler().maybe_start_from_env();
}

/// One JSON line describing a finished benchmark run. `extra_fields`, when
/// non-empty, is spliced verbatim before the closing brace (it must be a
/// comma-separated list of already-escaped `"key":value` pairs).
inline std::string bench_json_line(const char* bench, double seconds,
                                   const std::string& extra_fields = {},
                                   const std::string& scale = scale_name()) {
  const long long unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  char prefix[256];
  std::snprintf(prefix, sizeof(prefix),
                "{\"bench\":\"%s\",\"scale\":\"%s\",\"seconds\":%.6f,"
                "\"clock\":\"steady\",\"unix_ms\":%lld",
                bench, scale.c_str(), seconds, unix_ms);
  std::string line = prefix;
  if (!extra_fields.empty()) {
    line += ",";
    line += extra_fields;
  }
  line += "}\n";
  return line;
}

/// `"health":"<overall>","stages":{"<stage>":"<status>",...}` fields for a
/// BENCH json line, from a pipeline's stage-health map. An empty map (no
/// pipeline, or no stage executed) reads as a clean run.
inline std::string health_json_fields(
    const std::map<std::string, fault::StageHealth>& stages) {
  std::string out = "\"health\":\"";
  out += fault::to_string(fault::overall_status(stages));
  out += "\",\"stages\":{";
  bool first = true;
  for (const auto& [stage, health] : stages) {
    if (!first) out += ",";
    first = false;
    out += "\"" + stage + "\":\"";
    out += fault::to_string(health.status);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Peak resident set over the run, in MB: the max across the background
/// sampler's series (when it ran), a sample taken right now, and the
/// largest waited-for child's ru_maxrss, so the field is present -- if
/// coarser -- even in unsampled runs, and a harness that forks its work
/// (bench/scaling) reports its children's peak. RSS only shrinks on
/// explicit release (madvise), so the footer-time sample is a faithful
/// floor of the true peak.
inline double peak_rss_mb_now() {
  long peak_kb = obs::read_resource_sample().rss_kb;
  for (const obs::ResourceSample& sample : obs::sampler().samples()) {
    if (sample.rss_kb > peak_kb) peak_kb = sample.rss_kb;
  }
  struct rusage children{};
  if (getrusage(RUSAGE_CHILDREN, &children) == 0 &&
      children.ru_maxrss > peak_kb) {
    peak_kb = children.ru_maxrss;
  }
  return static_cast<double>(peak_kb) / 1024.0;
}

/// The `model name` line of /proc/cpuinfo, or "unknown" where there is none.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// `"hw_threads":N,"simd_level":"<level>","cpu_model":"<model>"` fields for
/// a BENCH json line: the host a measurement came from, so a comparison can
/// tell lines from different hosts apart.
inline std::string host_json_fields() {
  return "\"hw_threads\":" + std::to_string(hardware_thread_count()) +
         ",\"simd_level\":\"" +
         std::string(simd::to_string(simd::active_level())) +
         "\",\"cpu_model\":\"" + obs::json_escape(cpu_model()) + "\"";
}

/// Prints the footer and emits the machine-readable artifacts described in
/// the header comment. `bench` names the BENCH_<bench>.json file; `stages`
/// (typically pipeline.stage_health()) becomes the line's health verdict and
/// `extra_fields` extends the line (see bench_json_line).
inline void print_footer(const char* bench, const Stopwatch& watch,
                         const std::map<std::string, fault::StageHealth>& stages = {},
                         const std::string& extra_fields = {},
                         const std::string& scale = scale_name()) {
  std::printf("\n[completed in %.1f s]\n", watch.seconds());

  // Join the sampler before building the line so its final sample counts
  // toward peak_rss_mb and the exported series covers the full run.
  obs::sampler().stop();

  std::string fields = health_json_fields(stages);
  {
    char rss[64];
    std::snprintf(rss, sizeof(rss), ",\"peak_rss_mb\":%.1f,",
                  peak_rss_mb_now());
    fields += rss;
  }
  fields += host_json_fields();
  if (!extra_fields.empty()) {
    fields += ",";
    fields += extra_fields;
  }
  const char* dir = std::getenv("REPRO_BENCH_OUT");
  const std::string out_dir = dir == nullptr ? "bench_output" : dir;
  const std::string path = out_dir + "/BENCH_" + bench + ".json";
  const std::string line =
      bench_json_line(bench, watch.seconds(), fields, scale);
  try {
    write_file(path, line);
  } catch (const Error& error) {
    std::fprintf(stderr, "bench json not written: %s\n", error.what());
  }
  try {
    // Trend history: the same line, appended, so repro-bench can diff this
    // run against earlier ones. REPRO_HISTORY_MAX_LINES (when set) caps the
    // file to the newest N lines.
    append_file_capped(out_dir + "/HISTORY.jsonl", line,
                       obs::history_max_lines_from_env());
  } catch (const Error& error) {
    std::fprintf(stderr, "bench history not appended: %s\n", error.what());
  }

  if (obs::tracing_enabled()) {
    std::printf("\nPer-stage timing (REPRO_TRACE=1):\n%s\n",
                obs::span_table().c_str());
    if (obs::maybe_write_run_report()) {
      std::printf("[trace: wrote %s]\n", obs::default_report_path().c_str());
    }
    if (obs::maybe_write_trace()) {
      std::printf("[trace: wrote %s]\n", obs::default_trace_path().c_str());
    }
  }
}

/// Footer for a harness built around one Pipeline: surfaces its per-stage
/// StageHealth verdicts in the BENCH json line and stamps the scale the
/// pipeline ran at.
inline void print_footer(const char* bench, const Stopwatch& watch,
                         const Pipeline& pipeline,
                         const std::string& extra_fields = {}) {
  print_footer(bench, watch, pipeline.stage_health(), extra_fields,
               std::string(to_string(pipeline.scenario().scale)));
}

inline constexpr double kPaperXis[] = {0.1, 0.9};

}  // namespace repro::bench
