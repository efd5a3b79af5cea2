#include "src/exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "src/exec/thread_pool.h"

namespace edk {

namespace {

size_t g_default_threads = 0;  // 0 = hardware concurrency.

// Shared between the calling thread and the helper jobs it submits. Held
// through a shared_ptr so a helper that starts only after the loop already
// finished (and the caller returned) still finds live state to inspect.
struct ForState {
  std::function<void(size_t)> fn;
  size_t end = 0;
  size_t total = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mutex;
  std::condition_variable all_done;

  // Grabs indices until the range drains. Every index is counted in `done`
  // exactly once, whether it ran, threw, or was skipped after a failure, so
  // done == total means no fn invocation is still in flight.
  void RunWorker() {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= end) {
        return;
      }
      if (!failed.load()) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!failed.exchange(true)) {
            error = std::current_exception();
          }
        }
      }
      if (done.fetch_add(1) + 1 == total) {
        std::lock_guard<std::mutex> lock(mutex);
        all_done.notify_all();
      }
    }
  }
};

}  // namespace

size_t HardwareThreads() {
  // Asked once: hardware_concurrency() is a syscall, and DefaultThreads()
  // runs on every ParallelFor, which the sharded engine calls per window.
  static const size_t threads = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? size_t{1} : size_t{n};
  }();
  return threads;
}

size_t DefaultThreads() {
  return g_default_threads == 0 ? HardwareThreads() : g_default_threads;
}

void SetDefaultThreads(size_t threads) { g_default_threads = threads; }

void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn,
                 size_t threads) {
  if (begin >= end) {
    return;
  }
  const size_t count = end - begin;
  size_t workers = threads == 0 ? DefaultThreads() : threads;
  workers = std::min(workers, count);
  if (workers <= 1) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }

  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->end = end;
  state->total = count;
  state->next.store(begin);

  // The caller is worker 0; only workers-1 helper jobs are submitted. A
  // helper that never gets a pool slot before the range drains exits
  // immediately on its first grab, so completion never depends on pool
  // availability — the caller alone can drain the range.
  for (size_t w = 1; w < workers; ++w) {
    ThreadPool::Shared().Submit([state] { state->RunWorker(); });
  }
  state->RunWorker();

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&state] { return state->done.load() >= state->total; });
  if (state->failed.load()) {
    std::rethrow_exception(state->error);
  }
}

void ParallelSweep(const std::vector<std::function<void()>>& tasks, size_t threads) {
  ParallelFor(
      0, tasks.size(), [&tasks](size_t i) { tasks[i](); }, threads);
}

uint64_t TaskSeed(uint64_t base_seed, uint64_t task_index) {
  // SplitMix64 advances its state by the golden gamma per step, so starting
  // task_index steps past base_seed and taking one output is exactly
  // "element task_index of the SplitMix64 stream seeded at base_seed".
  uint64_t state = base_seed + task_index * 0x9e3779b97f4a7c15ULL;
  return SplitMix64(state);
}

Rng TaskRng(uint64_t base_seed, uint64_t task_index) {
  return Rng(TaskSeed(base_seed, task_index));
}

}  // namespace edk
