// Background resource sampler: a thread that periodically reads
// /proc/self/statm and getrusage() into a time-series of resource samples
// (RSS, user/system CPU time, minor/major page faults) on the tracer's
// timeline. The Perfetto exporter turns the series into counter tracks and
// maybe_write_run_report() embeds it as the "sampler" report section.
//
// Configuration: REPRO_SAMPLE_HZ sets the sampling rate; "0" (or any value
// that is not a positive number, NaN included) disables the sampler. When
// the variable is unset, maybe_start_from_env() starts the sampler at a
// default rate only when tracing is enabled, so REPRO_TRACE=1 runs always
// carry resource counter tracks while untraced runs pay nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace repro::obs {

/// One reading. `t_ms` is milliseconds since the tracer epoch (same
/// timeline as Span::start_ms so counter tracks align with slices).
struct ResourceSample {
  double t_ms = 0.0;
  long rss_kb = 0;        // resident set, from /proc/self/statm
  double utime_ms = 0.0;  // cumulative user CPU, from getrusage
  double stime_ms = 0.0;  // cumulative system CPU
  long minor_faults = 0;  // cumulative, ru_minflt
  long major_faults = 0;  // cumulative, ru_majflt
};

/// Process-global sampler thread. start()/stop() are idempotent and
/// thread-safe; samples() may be read while sampling is live.
class ResourceSampler {
 public:
  static ResourceSampler& instance();

  /// Starts the background thread at `hz` samples per second (clamped to
  /// [0.1, 1000]). No-op when already running or when `hz` is not positive
  /// (NaN included). Takes one sample immediately so even a very short run
  /// has a first point.
  void start(double hz);

  /// Stops and joins the thread, taking one final sample first so the
  /// series covers the full run. No-op when not running.
  void stop();

  bool running() const noexcept;

  /// REPRO_SAMPLE_HZ when set ("0", "nan" and junk disable); otherwise
  /// `default_hz`, but only when tracing is enabled. Returns true when the
  /// sampler ends up running.
  bool maybe_start_from_env(double default_hz = 10.0);

  /// Copy of all samples recorded since the last reset.
  std::vector<ResourceSample> samples() const;

  /// Drops recorded samples (tests). Does not stop a running thread.
  void reset();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

 private:
  ResourceSampler();
  struct Impl;
  Impl* impl_;
};

/// Shorthand for the global sampler.
inline ResourceSampler& sampler() { return ResourceSampler::instance(); }

/// Reads one sample right now (also used internally by the thread).
ResourceSample read_resource_sample() noexcept;

}  // namespace repro::obs
