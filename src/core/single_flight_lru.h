// SingleFlightLru: the one get-or-build cache outside the artifact store.
// It holds the report service's resident pipelines and rendered reports,
// and (unbounded) every lazy Pipeline stage. get() answers a hit, parks on
// another thread's build of the key, or builds outside the lock (a throwing
// build hands the key to a waiter). Values return by copy, surviving
// eviction.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"

namespace repro {

template <class Value>
class SingleFlightLru {
 public:
  /// Counter names (hit, parked on another build, evicted past the bound)
  /// and a gauge of the entry count after each insert; nullptr skips one.
  struct Metrics {
    const char* hit = nullptr;
    const char* inflight_wait = nullptr;
    const char* evicted = nullptr;
    const char* resident = nullptr;
  };

  SingleFlightLru(std::size_t capacity, Metrics metrics)
      : capacity_(capacity), metrics_(metrics) {}

  /// The value for `key`, built with `build()` on a miss; `hit` (when
  /// given) reports whether it came from the cache.
  template <class Build>
  Value get(std::uint64_t key, Build&& build, bool* hit = nullptr) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        const auto it = index_.find(key);
        if (it != index_.end()) {
          recency_.splice(recency_.begin(), recency_, it->second);
          count(metrics_.hit);
          if (hit != nullptr) *hit = true;
          return it->second->second;
        }
        if (!inflight_.contains(key)) break;
        count(metrics_.inflight_wait);
        cv_.wait(lock);
      }
      inflight_.insert(key);
    }
    if (hit != nullptr) *hit = false;

    Value built;
    try {
      built = build();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
      cv_.notify_all();
      throw;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    recency_.emplace_front(key, built);
    index_[key] = recency_.begin();
    while (recency_.size() > capacity_) {
      index_.erase(recency_.back().first);
      recency_.pop_back();
      count(metrics_.evicted);
    }
    if (metrics_.resident != nullptr) {
      obs::metrics().gauge(metrics_.resident)
          .set(static_cast<double>(recency_.size()));
    }
    cv_.notify_all();
    return built;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return recency_.size();
  }

 private:
  static void count(const char* name) {
    if (name != nullptr) obs::metrics().counter(name).add(1);
  }

  const std::size_t capacity_;
  const Metrics metrics_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Front = most recently used.
  std::list<std::pair<std::uint64_t, Value>> recency_;
  std::unordered_map<std::uint64_t, typename decltype(recency_)::iterator>
      index_;
  std::unordered_set<std::uint64_t> inflight_;
};

}  // namespace repro
