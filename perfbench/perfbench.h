// Shared plumbing for the perfbench benchmark binary: clocks, resource
// readings, a flat JSON object writer, argument parsing and the paper
// scenario for a seed. The binary only times calls into the repository's
// public API; run.py turns its JSON lines into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scenario.h"

namespace perfbench {

/// Monotonic seconds (CLOCK_MONOTONIC, the clock of Python's
/// time.monotonic()).
double now_s();

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();

/// CPU seconds of the calling thread.
double thread_cpu_s();

/// Current resident set in MB.
double rss_mb();

/// Lifetime peak resident set of this process in MB (getrusage).
double peak_rss_mb();

/// Wall and process-CPU interval, started at construction.
class Interval {
 public:
  Interval() : wall_(now_s()), cpu_(process_cpu_s()) {}
  double wall() const { return now_s() - wall_; }
  double cpu() const { return process_cpu_s() - cpu_; }

 private:
  double wall_;
  double cpu_;
};

/// Insertion-ordered flat JSON object: numbers, strings, booleans and
/// pre-rendered JSON values.
class Json {
 public:
  Json& num(std::string_view key, double value);
  Json& str(std::string_view key, std::string_view value);
  Json& flag(std::string_view key, bool value);
  Json& raw(std::string_view key, std::string_view json);
  /// Appends every field of `other`.
  Json& merge(const Json& other);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON array of numbers with every digit.
std::string number_list(const std::vector<double>& values);

/// 16-hex-digit FNV-1a digest of a text.
std::string digest_hex(std::string_view text);

/// `--key value` pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string get(const std::string& key, const std::string& fallback) const;
  double number(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The preset for `scale` ("paper" or "tiny"). Seed 0 leaves it unmodified;
/// any other seed re-draws the synthetic ping noise, which changes every
/// latency matrix but not the size of the world.
repro::Scenario scenario_for(const std::string& scale, std::uint64_t seed);

/// Subcommands (perfbench.cpp dispatches on argv[1]).
int run_paper(const Args& args);
int run_serve(const Args& args);

}  // namespace perfbench
