#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "util/error.h"

namespace repro {

namespace {

/// True while this thread executes a pool task or a parallel_for body, so
/// nested parallel loops serialize instead of blocking the pool on itself.
thread_local bool t_in_parallel_region = false;

/// REPRO_THREADS, or 0 when unset/unparseable.
std::size_t env_thread_count() noexcept {
  const char* value = std::getenv("REPRO_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) return 0;
  return static_cast<std::size_t>(parsed);
}

std::atomic<std::size_t>& override_count() noexcept {
  static std::atomic<std::size_t> count{0};
  return count;
}

/// Installed hooks, guarded by a mutex only on write; reads snapshot the
/// three pointers individually (relaxed: installation happens at load time,
/// before any pool traffic).
std::atomic<void* (*)() noexcept> g_on_submit{nullptr};
std::atomic<void* (*)(void*) noexcept> g_on_run_begin{nullptr};
std::atomic<void (*)(void*, void*) noexcept> g_on_run_end{nullptr};

}  // namespace

void set_task_hooks(const TaskHooks& hooks) noexcept {
  g_on_submit.store(hooks.on_submit, std::memory_order_release);
  g_on_run_begin.store(hooks.on_run_begin, std::memory_order_release);
  g_on_run_end.store(hooks.on_run_end, std::memory_order_release);
}

std::size_t hardware_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t default_thread_count() noexcept {
  const std::size_t forced = override_count().load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  static const std::size_t from_env = env_thread_count();
  if (from_env > 0) return from_env;
  return hardware_thread_count();
}

void set_default_thread_count(std::size_t count) noexcept {
  override_count().store(count, std::memory_order_relaxed);
}

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stop = false;
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl) {
  require(workers >= 1, "ThreadPool: need at least one worker");
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->ready.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

std::size_t ThreadPool::worker_count() const noexcept {
  return impl_->workers.size();
}

void ThreadPool::submit(std::function<void()> task) {
  // Span-context propagation: capture the submitting thread's context (a
  // null token -- tracing off, no open span -- leaves the task unwrapped).
  if (auto* on_submit = g_on_submit.load(std::memory_order_acquire)) {
    if (void* token = on_submit()) {
      auto* begin = g_on_run_begin.load(std::memory_order_acquire);
      auto* end = g_on_run_end.load(std::memory_order_acquire);
      task = [inner = std::move(task), begin, end, token] {
        void* scope = begin != nullptr ? begin(token) : nullptr;
        inner();
        if (end != nullptr) end(token, scope);
      };
    }
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.push_back(std::move(task));
  }
  impl_->ready.notify_one();
}

void ThreadPool::worker_loop() {
  // Workers only ever run pool tasks, so the flag can stay set for the
  // thread's whole lifetime.
  t_in_parallel_region = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->ready.wait(lock,
                        [this] { return impl_->stop || !impl_->queue.empty(); });
      if (impl_->queue.empty()) return;  // stop requested and queue drained
      task = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    // Cover the hardware, any REPRO_THREADS oversubscription, and the
    // 8-thread determinism tests on small machines; idle workers just park
    // on the queue condvar.
    std::size_t workers =
        std::max({hardware_thread_count(), env_thread_count(),
                  std::size_t{8}});
    return std::min<std::size_t>(workers, 64);
  }());
  return pool;
}

bool ThreadPool::in_parallel_region() noexcept { return t_in_parallel_region; }

void parallel_for_blocks(std::size_t count, std::size_t block,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t threads) {
  if (count == 0) return;
  if (block == 0) block = 1;
  std::size_t workers = threads == 0 ? default_thread_count() : threads;
  workers = std::min(workers, (count + block - 1) / block);
  if (workers <= 1 || t_in_parallel_region) {
    // Serial fallback: threads=1, a single block, or a nested call from
    // inside another parallel region (which must not block the pool).
    body(0, count);
    return;
  }

  // Region state outlives the caller: a helper dequeued after the caller
  // returned still reads `closed`, so it is shared, not on the stack.
  struct Region {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    bool closed = false;     // cursor drained; late helpers must not enter
    std::size_t active = 0;  // helpers inside drain()
    std::exception_ptr error;
  };
  const auto region = std::make_shared<Region>();

  // Dynamic scheduling: every participant pulls the next block off one
  // atomic cursor, so uneven block costs (e.g. the shrinking rows of an
  // upper-triangle sweep) balance themselves.
  const auto drain = [count, block, run = &body](Region& shared) {
    const bool saved = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      for (;;) {
        const std::size_t begin =
            shared.next.fetch_add(block, std::memory_order_relaxed);
        if (begin >= count) break;
        (*run)(begin, std::min(begin + block, count));
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(shared.mutex);
      if (!shared.error) shared.error = std::current_exception();
    }
    t_in_parallel_region = saved;
  };

  // A helper enters only while the region is open; one dequeued after the
  // caller closed it returns without touching `body`, which may be gone.
  for (std::size_t h = 1; h < workers; ++h) {
    ThreadPool::shared().submit([region, drain] {
      {
        std::lock_guard<std::mutex> lock(region->mutex);
        if (region->closed) return;
        ++region->active;
      }
      drain(*region);
      std::lock_guard<std::mutex> lock(region->mutex);
      if (--region->active == 0) region->done_cv.notify_one();
    });
  }
  drain(*region);  // the caller participates instead of idling
  {
    // The cursor is exhausted: close the region and wait only for the
    // helpers still running a block, never for ones stuck in the queue.
    std::unique_lock<std::mutex> lock(region->mutex);
    region->closed = true;
    region->done_cv.wait(lock, [&region] { return region->active == 0; });
  }
  if (region->error) std::rethrow_exception(region->error);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  parallel_for_blocks(
      count, 1,
      [&body](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) body(i);
      },
      threads);
}

std::vector<std::size_t> largest_first(const std::vector<std::size_t>& costs) {
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  return order;
}

}  // namespace repro
