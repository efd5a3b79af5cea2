// Structured data parallelism with deterministic results (edk::exec).
//
// ParallelFor / ParallelSweep distribute independent task indices over the
// shared ThreadPool. The determinism contract is structural, not
// scheduling-based: callers write all task output into slots indexed by the
// task index and derive any randomness from TaskRng(base_seed, index), so a
// sweep produces bit-identical results for any worker count (including 1)
// and any scheduling order. The calling thread always participates in the
// work, which both keeps the serial path allocation-free and makes nested
// ParallelFor calls deadlock-free even when the pool is saturated.
//
// Each shard's event queue in the simulation kernel (src/sim) stays
// single-threaded; the engine runs shards, and the embarrassingly parallel
// *outer* loops — per-day analyses, per-list-size / per-strategy sweeps,
// randomisation trials — run on the pool.

#ifndef SRC_EXEC_PARALLEL_H_
#define SRC_EXEC_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/rng.h"

namespace edk {

// Worker count used when ParallelFor's `threads` argument is 0. Defaults to
// the hardware concurrency; SetDefaultThreads(0) restores that. A value of
// 1 disables parallelism entirely (today's single-core behaviour).
size_t DefaultThreads();
void SetDefaultThreads(size_t threads);
size_t HardwareThreads();

// Runs fn(i) exactly once for every i in [begin, end), distributing indices
// dynamically over up to `threads` workers (0 = DefaultThreads()). Blocks
// until every index has finished. If any fn throws, indices not yet started
// are skipped and the first exception is rethrown on the calling thread
// after all in-flight indices drain. fn is invoked concurrently and must
// only touch shared state that is safe under concurrent access (typically:
// write to output slots indexed by i).
void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn,
                 size_t threads = 0);

// Runs every task exactly once; same scheduling and exception contract as
// ParallelFor.
void ParallelSweep(const std::vector<std::function<void()>>& tasks, size_t threads = 0);

// Deterministic per-task seed: element `task_index` of the SplitMix64
// stream seeded at `base_seed`. Distinct indices give decorrelated seeds;
// the mapping depends only on (base_seed, task_index), never on the
// executing thread.
uint64_t TaskSeed(uint64_t base_seed, uint64_t task_index);

// Rng seeded with TaskSeed(base_seed, task_index).
Rng TaskRng(uint64_t base_seed, uint64_t task_index);

}  // namespace edk

#endif  // SRC_EXEC_PARALLEL_H_
