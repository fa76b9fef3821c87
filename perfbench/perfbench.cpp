// perfbench benchmark binary. Subcommands:
//
//   perfbench host                       host stamp: cores, SIMD level, build
//   perfbench paper [--scale paper|tiny] [--seed N] [--store DIR] [--trace 0|1]
//                   [--startup 0|1]
//   perfbench serve [--seed N] [--store DIR] [--seconds S] [--trace 0|1]
//                   [--setups K]
//
// Each prints one JSON object as its last stdout line; run.py reads it.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/sampler.h"
#include "perfbench.h"
#include "store/serde.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double rss_mb() {
  return static_cast<double>(repro::obs::read_resource_sample().rss_kb) /
         1024.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Json& Json::num(std::string_view key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  fields_.emplace_back(std::string(key), text);
  return *this;
}

Json& Json::str(std::string_view key, std::string_view value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  fields_.emplace_back(std::string(key), std::move(quoted));
  return *this;
}

Json& Json::flag(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

Json& Json::raw(std::string_view key, std::string_view json) {
  fields_.emplace_back(std::string(key), std::string(json));
  return *this;
}

Json& Json::merge(const Json& other) {
  fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
  return *this;
}

std::string Json::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  return out + "}";
}

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char text[40];
    std::snprintf(text, sizeof(text), "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += text;
  }
  return out + "]";
}

std::string digest_hex(std::string_view text) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    repro::store::Fnv1a().mix(text).digest()));
  return hex;
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    values_[key] = argv[i + 1];
  }
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Args::number(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

repro::Scenario scenario_for(const std::string& scale, std::uint64_t seed) {
  const auto parsed = repro::parse_scale(scale);
  if (!parsed.has_value()) throw std::runtime_error("unknown scale " + scale);
  repro::Scenario scenario = repro::Scenario::at_scale(*parsed);
  if (seed != 0) {
    scenario.ping.seed =
        repro::store::Fnv1a().mix(scenario.ping.seed).mix(seed).digest();
  }
  return scenario;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int run_host() {
  Json out;
  out.num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .num("threads", static_cast<double>(repro::default_thread_count()))
      .str("simd", repro::simd::to_string(repro::simd::active_level()))
      .str("cpu_model", cpu_model())
      .str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench host|paper|serve [--key value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (command == "host") return run_host();
    if (command == "paper") return run_paper(args);
    if (command == "serve") return run_serve(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", command.c_str());
  return 2;
}
