// A small reusable thread pool plus data-parallel loop helpers, used to fan
// the clustering tier and the peering study's per-target traceroutes across
// cores.
//
// Determinism contract: parallel_for / parallel_for_blocks only change which
// thread executes each index range, never what is computed. A body that
// writes to disjoint per-index slots therefore produces bit-identical output
// for every thread count, including the serial fallback. The clustering
// engine and the peering study are built on this contract and
// tests/test_parallel.cpp enforces it.
//
// Thread-count resolution (first match wins):
//   1. an explicit `threads` argument > 0,
//   2. set_default_thread_count(n) with n > 0 (programmatic override),
//   3. the REPRO_THREADS environment variable (read once),
//   4. std::thread::hardware_concurrency().
// A resolved count of 1 runs the body inline on the caller with no pool
// traffic at all. Nested parallel_for calls (a body that itself calls
// parallel_for, e.g. pairwise_distances inside the per-ISP fan-out) run
// serially inside the outer region instead of deadlocking the pool.
//
// See docs/PARALLELISM.md for the design rationale.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace repro {

/// std::thread::hardware_concurrency(), never 0.
std::size_t hardware_thread_count() noexcept;

/// Worker count used when a parallel loop is not given an explicit one:
/// the set_default_thread_count override, else REPRO_THREADS, else the
/// hardware concurrency.
std::size_t default_thread_count() noexcept;

/// Programmatic override of the default (tests, benchmarks). 0 clears the
/// override and falls back to REPRO_THREADS / hardware concurrency.
void set_default_thread_count(std::size_t count) noexcept;

/// Cross-thread task instrumentation hooks. The obs tracing layer installs
/// these at load time so spans opened on pool workers re-parent under the
/// submitting thread's open span (with enqueue->run flow arrows in the
/// exported trace); the pool itself stays free of an obs dependency. All
/// pointers may be null. `on_submit` runs on the submitting thread at
/// enqueue and returns an opaque token -- nullptr means "nothing to
/// propagate" and the task is not wrapped at all, so the disabled-tracing
/// path costs one indirect call per submit. `on_run_begin` / `on_run_end`
/// bracket the task body on the worker.
struct TaskHooks {
  void* (*on_submit)() noexcept = nullptr;
  void* (*on_run_begin)(void* token) noexcept = nullptr;
  void (*on_run_end)(void* token, void* scope) noexcept = nullptr;
};

/// Installs the process-wide task hooks (idempotent; last write wins).
void set_task_hooks(const TaskHooks& hooks) noexcept;

/// Fixed set of worker threads consuming a FIFO task queue. Tasks must not
/// block on other tasks; the parallel_for helpers below never do.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  std::size_t worker_count() const noexcept;

  /// Enqueues a task. Thread-safe.
  void submit(std::function<void()> task);

  /// Process-wide pool the parallel_for helpers dispatch to. Sized once at
  /// first use to cover the hardware and any REPRO_THREADS oversubscription
  /// (so determinism tests can ask for 8 threads on a smaller machine).
  static ThreadPool& shared();

  /// True on a thread currently executing inside a pool task or a
  /// parallel_for body; parallel loops started there run serially.
  static bool in_parallel_region() noexcept;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  void worker_loop();

  struct Impl;
  Impl* impl_;
};

/// Runs body(begin, end) over [0, count) split into blocks of `block`
/// indices (0 = one index per block), dynamically load-balanced over
/// `threads` workers (0 = default_thread_count(); the caller participates).
/// The first exception thrown by a body is rethrown on the caller.
/// Returns once every block has run: the caller waits for helpers that are
/// still running a block, never for helpers still queued behind other pool
/// work -- those find the region closed and return without calling `body`.
void parallel_for_blocks(std::size_t count, std::size_t block,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t threads = 0);

/// Runs body(i) for every i in [0, count); see parallel_for_blocks.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

/// Dispatch order for tasks of uneven cost: the positions of `costs` by
/// descending cost, equal costs by ascending position. Handed out one at
/// a time through parallel_for, the costliest tasks start first instead of
/// one of them starting last and ending the loop alone.
std::vector<std::size_t> largest_first(const std::vector<std::size_t>& costs);

}  // namespace repro
