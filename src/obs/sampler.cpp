#include "obs/sampler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "obs/trace.h"

namespace repro::obs {

ResourceSample read_resource_sample() noexcept {
  ResourceSample sample;
  sample.t_ms = tracer().now_ms();
#if defined(__linux__)
  if (std::FILE* file = std::fopen("/proc/self/statm", "r")) {
    long size_pages = 0;
    long rss_pages = 0;
    if (std::fscanf(file, "%ld %ld", &size_pages, &rss_pages) == 2) {
      const long page_kb = sysconf(_SC_PAGESIZE) / 1024;
      sample.rss_kb = rss_pages * (page_kb > 0 ? page_kb : 4);
    }
    std::fclose(file);
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    sample.utime_ms = static_cast<double>(usage.ru_utime.tv_sec) * 1e3 +
                      static_cast<double>(usage.ru_utime.tv_usec) / 1e3;
    sample.stime_ms = static_cast<double>(usage.ru_stime.tv_sec) * 1e3 +
                      static_cast<double>(usage.ru_stime.tv_usec) / 1e3;
    sample.minor_faults = usage.ru_minflt;
    sample.major_faults = usage.ru_majflt;
  }
#endif
  return sample;
}

struct ResourceSampler::Impl {
  mutable std::mutex mutex;
  std::condition_variable wake;
  std::vector<ResourceSample> samples;
  std::thread thread;
  bool running = false;
  bool stop_requested = false;
};

ResourceSampler::ResourceSampler() : impl_(new Impl) {}

ResourceSampler& ResourceSampler::instance() {
  static ResourceSampler the_sampler;
  return the_sampler;
}

void ResourceSampler::start(double hz) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  // !(hz > 0) also rejects NaN, which std::clamp would pass through as a
  // NaN period: a wait_for that never waits.
  if (impl_->running || !(hz > 0.0)) return;
  const double clamped = std::clamp(hz, 0.1, 1000.0);
  const auto period = std::chrono::duration<double>(1.0 / clamped);
  impl_->running = true;
  impl_->stop_requested = false;
  impl_->samples.push_back(read_resource_sample());
  impl_->thread = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    while (!impl_->stop_requested) {
      // wait_for rather than a deadline loop: drift is irrelevant for
      // counter tracks and this wakes immediately on stop().
      impl_->wake.wait_for(lock, period,
                           [this] { return impl_->stop_requested; });
      if (impl_->stop_requested) break;
      lock.unlock();
      const ResourceSample sample = read_resource_sample();
      lock.lock();
      impl_->samples.push_back(sample);
    }
  });
}

void ResourceSampler::stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (!impl_->running) return;
    impl_->stop_requested = true;
    to_join = std::move(impl_->thread);
  }
  impl_->wake.notify_all();
  to_join.join();
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->samples.push_back(read_resource_sample());
  impl_->running = false;
}

bool ResourceSampler::running() const noexcept {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->running;
}

bool ResourceSampler::maybe_start_from_env(double default_hz) {
  const char* value = std::getenv("REPRO_SAMPLE_HZ");
  double hz = 0.0;
  if (value != nullptr && *value != '\0') {
    char* end = nullptr;
    hz = std::strtod(value, &end);
    if (end == value || !(hz > 0.0)) return false;  // "0", NaN, junk: off
  } else if (tracing_enabled()) {
    hz = default_hz;
  } else {
    return false;
  }
  start(hz);
  return true;
}

std::vector<ResourceSample> ResourceSampler::samples() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->samples;
}

void ResourceSampler::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->samples.clear();
}

}  // namespace repro::obs
