// Multi-core scan over EDKT v2 day blocks (DESIGN.md §6i).
//
// The unit of work is one block of one day (a block-less day is one task).
// Tasks are enumerated in canonical order — ascending day, ascending block
// — and run concurrently on the src/exec pool. Each worker decodes with a
// DecodeArena drawn from a free-list pool (ParallelFor exposes no worker
// identity, so arenas are leased per task; a lease is two mutex ops
// against ~1 MiB of decode work), so steady-state scanning performs no
// per-snapshot or per-task allocation.
//
// Determinism contract: within one task callbacks arrive in ascending peer
// order on a single thread, but tasks interleave freely. Callers therefore
// accumulate into PER-TASK slots (indexed by the task number) and merge in
// task order after Run returns — the merged result is identical to a
// serial scan for any thread count. The cross-block invariant (a block's
// first peer exceeds the previous block's last) cannot be checked inline
// when blocks decode out of order; Run records each task's peer bounds and
// validates the chain in block order at the end.

#ifndef SRC_TRACE_STREAM_PARALLEL_SCAN_H_
#define SRC_TRACE_STREAM_PARALLEL_SCAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/exec/parallel.h"
#include "src/trace/stream/format.h"
#include "src/trace/stream/trace_reader.h"

namespace edk::stream {

// Free-list pool of decode arenas (or any default-constructible per-worker
// state T): Acquire leases an instance, Release returns it. At most one
// instance per concurrently running task is ever constructed. `ForEach`
// visits every instance ever leased — the canonical way to merge
// per-worker partials AFTER the parallel loop has joined.
template <typename T>
class WorkerPool {
 public:
  T* Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      owned_.push_back(std::make_unique<T>());
      return owned_.back().get();
    }
    T* state = free_.back();
    free_.pop_back();
    return state;
  }

  void Release(T* state) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(state);
  }

  // RAII lease for exception safety inside parallel tasks.
  class Lease {
   public:
    explicit Lease(WorkerPool& pool) : pool_(pool), state_(pool.Acquire()) {}
    ~Lease() { pool_.Release(state_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    T& operator*() const { return *state_; }
    T* operator->() const { return state_; }

   private:
    WorkerPool& pool_;
    T* state_;
  };

  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (const auto& state : owned_) {
      fn(*state);
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<T>> owned_;
  std::vector<T*> free_;
};

using ArenaPool = WorkerPool<DecodeArena>;

// One unit of parallel scan work: block `block` of `*day`.
struct ScanTask {
  const TraceReader::DayInfo* day = nullptr;
  size_t day_index = 0;  // Index into reader.days().
  size_t block = 0;      // 0 for block-less days.

  uint64_t snapshots() const {
    return day->blocks.empty() ? day->snapshots
                               : day->blocks[block].snapshots;
  }
  uint64_t file_entries() const {
    return day->blocks.empty() ? day->file_entries
                               : day->blocks[block].file_entries;
  }
};

// Every block of every day, in canonical (day, block) order.
inline std::vector<ScanTask> MakeScanTasks(const TraceReader& reader) {
  std::vector<ScanTask> tasks;
  for (size_t d = 0; d < reader.days().size(); ++d) {
    const TraceReader::DayInfo& info = reader.days()[d];
    for (size_t b = 0; b < TraceReader::BlockCount(info); ++b) {
      tasks.push_back(ScanTask{&info, d, b});
    }
  }
  return tasks;
}

// Decodes `tasks` concurrently, calling
//   fn(size_t task_index, uint32_t peer, const uint32_t* files, size_t count)
// per snapshot. Within a task callbacks are ordered and single-threaded;
// across tasks they interleave — accumulate per task_index and merge in
// order. Returns false on any decode failure or on a cross-block peer
// ordering violation. `threads` as in ParallelFor (0 = DefaultThreads).
template <typename Fn>
bool ParallelScanSnapshots(const TraceReader& reader,
                           const std::vector<ScanTask>& tasks, Fn&& fn,
                           size_t threads = 0) {
  struct TaskBounds {
    uint32_t first_peer = 0;
    uint32_t last_peer = 0;
    bool ok = false;
  };
  std::vector<TaskBounds> bounds(tasks.size());
  ArenaPool arenas;
  ParallelFor(
      0, tasks.size(),
      [&](size_t t) {
        const ScanTask& task = tasks[t];
        ArenaPool::Lease arena(arenas);
        bounds[t].ok = reader.ForEachSnapshotInBlock(
            *task.day, task.block, *arena,
            [&](uint32_t peer, const uint32_t* files, size_t count) {
              fn(t, peer, files, count);
            },
            &bounds[t].first_peer, &bounds[t].last_peer);
      },
      threads);
  // Deterministic block-ordered reduction of the validity checks: every
  // task decoded, and consecutive blocks of one day stayed strictly
  // ascending across the boundary.
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (!bounds[t].ok) {
      return false;
    }
    if (t > 0 && tasks[t].day == tasks[t - 1].day &&
        tasks[t].snapshots() > 0 && tasks[t - 1].snapshots() > 0 &&
        bounds[t].first_peer <= bounds[t - 1].last_peer) {
      return false;
    }
  }
  return true;
}

}  // namespace edk::stream

#endif  // SRC_TRACE_STREAM_PARALLEL_SCAN_H_
