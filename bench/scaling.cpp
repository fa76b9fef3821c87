// Scaling bench: the Scale axis as a tracked artifact (docs/SCALING.md).
//
// For each scale in REPRO_SCALING_SCALES (comma-separated; default
// "tiny,small,paper") the clustering pipeline runs twice in freshly forked
// child processes -- once with the in-memory matrix substrate, once with
// the streamed one (spill to an .mmx file, mmap back, block-streamed
// pairwise distances) -- and each child reports its end-to-end wall clock,
// clustering-stage wall clock, pre-clustering RSS baseline, and lifetime
// peak RSS (getrusage ru_maxrss). Forking gives every configuration an
// honest per-process peak: RSS never carries over from the previous
// measurement, and the two substrates of one scale see identical cold
// state.
//
// The number the scaling story hangs on is `cluster_growth_mb` = peak RSS
// minus the baseline sampled right before the clustering stage: the
// streamed substrate holds it roughly flat as matrices grow, while the
// in-memory substrate's growth tracks the largest per-ISP matrix. Both
// substrates are bit-identical in output (tests/test_scale.cpp fences
// that), so the curve is purely a memory/time trade.
//
// Artifacts: BENCH_scaling.json with a per-scale/per-substrate object
// ("seconds", "cluster_seconds", "baseline_mb", "peak_mb", "growth_mb").
// REPRO_SCALING_ROWS overrides the streamed block height for the sweep.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"

namespace {

using namespace repro;

struct ConfigResult {
  bool ok = false;
  double seconds = 0.0;          // end to end: construction + all stages
  double cluster_seconds = 0.0;  // the clusterings() call alone
  double baseline_mb = 0.0;      // RSS right before clustering
  double peak_mb = 0.0;          // lifetime peak (ru_maxrss)
  double growth_mb() const { return peak_mb - baseline_mb; }
};

/// Runs one (scale, substrate) configuration in a forked child so its peak
/// RSS is measured from a clean slate. The child computes the standard xi
/// batch and reports through a pipe; a crashed or nonzero child yields
/// ok=false rather than taking the bench down.
ConfigResult run_config(Scale scale, bool streamed, std::size_t block_rows) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    double payload[4] = {0.0, 0.0, 0.0, 0.0};
    try {
      Scenario scenario = Scenario::at_scale(scale);
      scenario.stream_matrices = streamed;
      if (block_rows != 0) scenario.stream_block_rows = block_rows;
      bench::Stopwatch total;
      Pipeline pipeline(scenario, fault::FaultPlan::none());
      pipeline.hosting_isps_2023();  // every stage but clustering
      payload[2] =
          static_cast<double>(obs::read_resource_sample().rss_kb) / 1024.0;
      bench::Stopwatch cluster;
      pipeline.clusterings(0.1);
      payload[1] = cluster.seconds();
      payload[0] = total.seconds();
      struct rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      payload[3] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "scaling child: %s\n", error.what());
      std::_Exit(1);
    }
    const ssize_t wrote = write(fds[1], payload, sizeof(payload));
    std::_Exit(wrote == sizeof(payload) ? 0 : 1);
  }
  close(fds[1]);
  double payload[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t got = 0;
  while (got < sizeof(payload)) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(payload) + got,
                           sizeof(payload) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  ConfigResult result;
  result.ok = got == sizeof(payload) && WIFEXITED(status) &&
              WEXITSTATUS(status) == 0;
  result.seconds = payload[0];
  result.cluster_seconds = payload[1];
  result.baseline_mb = payload[2];
  result.peak_mb = payload[3];
  return result;
}

std::vector<Scale> scales_from_env() {
  const char* env = std::getenv("REPRO_SCALING_SCALES");
  const std::string list = env == nullptr ? "tiny,small,paper" : env;
  std::vector<Scale> scales;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::string name =
        list.substr(begin, comma == std::string::npos ? comma : comma - begin);
    if (!name.empty()) {
      if (const auto scale = parse_scale(name); scale.has_value()) {
        scales.push_back(*scale);
      } else {
        std::fprintf(stderr, "unknown scale '%s' skipped\n", name.c_str());
      }
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return scales;
}

std::string config_json(const ConfigResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"ok\":%s,\"seconds\":%.3f,\"cluster_seconds\":%.3f,"
                "\"baseline_mb\":%.1f,\"peak_mb\":%.1f,\"growth_mb\":%.1f}",
                r.ok ? "true" : "false", r.seconds, r.cluster_seconds,
                r.baseline_mb, r.peak_mb, r.growth_mb());
  return buf;
}

}  // namespace

int main() {
  using namespace repro;
  bench::Stopwatch total;
  const std::vector<Scale> scales = scales_from_env();
  // Stamp the scales this run covers, not REPRO_SCALE (which it ignores).
  std::string ran;
  for (const Scale scale : scales) {
    if (!ran.empty()) ran += ",";
    ran += to_string(scale);
  }
  bench::print_header("Scaling: wall clock and peak RSS per Scale", ran);

  const char* rows_env = std::getenv("REPRO_SCALING_ROWS");
  const std::size_t block_rows =
      rows_env == nullptr ? 0 : std::strtoul(rows_env, nullptr, 10);

  std::printf("%-7s %-9s %10s %12s %12s %11s %11s\n", "scale", "substrate",
              "seconds", "cluster_s", "baseline_mb", "peak_mb", "growth_mb");
  std::string scales_json = "\"scales\":{";
  bool first = true;
  bool all_ok = true;
  for (const Scale scale : scales) {
    const std::string name{to_string(scale)};
    std::string entry = "\"" + name + "\":{";
    for (const bool streamed : {false, true}) {
      const ConfigResult r = run_config(scale, streamed, block_rows);
      all_ok = all_ok && r.ok;
      std::printf("%-7s %-9s %10.2f %12.2f %12.1f %11.1f %11.1f%s\n",
                  name.c_str(),
                  streamed ? "streamed" : "inmem", r.seconds,
                  r.cluster_seconds, r.baseline_mb, r.peak_mb, r.growth_mb(),
                  r.ok ? "" : "  [FAILED]");
      entry += streamed ? "\"streamed\":" : "\"inmem\":";
      entry += config_json(r);
      if (!streamed) entry += ",";
    }
    entry += "}";
    if (!first) scales_json += ",";
    first = false;
    scales_json += entry;
  }
  scales_json += "}";
  if (block_rows != 0) {
    scales_json += ",\"block_rows\":" + std::to_string(block_rows);
  }

  bench::print_footer("scaling", total, {}, scales_json, ran);
  return all_ok ? 0 : 1;
}
