// Scaling bench: the Scale axis as a tracked artifact (docs/SCALING.md).
//
// For each scale in REPRO_SCALING_SCALES (comma-separated; default
// "tiny,small,paper") the clustering pipeline runs once in a freshly forked
// child process, on the pipeline's one in-memory matrix path, and the child
// reports its end-to-end wall clock, clustering-stage wall clock,
// pre-clustering RSS baseline, and lifetime peak RSS (getrusage
// ru_maxrss). Forking gives every scale an honest per-process peak: RSS
// never carries over from the previous measurement.
//
// `growth_mb` = peak RSS minus the baseline sampled right before the
// clustering stage: what the per-ISP latency matrices, compact matrices
// and distance triangles of the concurrently clustered ISPs add on top of
// the world.
//
// Artifacts: BENCH_scaling.json with one object per scale ("ok",
// "seconds", "cluster_seconds", "baseline_mb", "peak_mb", "growth_mb"). The
// line's top-level peak_rss_mb is the largest child's peak, not this
// parent's own few MB.
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

/// Runs one scale in a forked child so its peak RSS is measured from a
/// clean slate. The child computes the standard xi batch and reports
/// through a pipe; a crashed or nonzero child yields ok=false rather than
/// taking the bench down.
ConfigResult run_config(Scale scale) {
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
      bench::Stopwatch total;
      Pipeline pipeline(Scenario::at_scale(scale), fault::FaultPlan::none());
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

  std::printf("%-7s %10s %12s %12s %11s %11s\n", "scale", "seconds",
              "cluster_s", "baseline_mb", "peak_mb", "growth_mb");
  std::string scales_json = "\"scales\":{";
  bool all_ok = true;
  for (const Scale scale : scales) {
    const std::string name{to_string(scale)};
    const ConfigResult r = run_config(scale);
    all_ok = all_ok && r.ok;
    std::printf("%-7s %10.2f %12.2f %12.1f %11.1f %11.1f%s\n", name.c_str(),
                r.seconds, r.cluster_seconds, r.baseline_mb, r.peak_mb,
                r.growth_mb(), r.ok ? "" : "  [FAILED]");
    if (scales_json.back() != '{') scales_json += ",";
    scales_json += "\"" + name + "\":" + config_json(r);
  }
  scales_json += "}";

  bench::print_footer("scaling", total, {}, scales_json, ran);
  return all_ok ? 0 : 1;
}
