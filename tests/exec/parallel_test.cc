#include "src/exec/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/exec/thread_pool.h"

namespace edk {
namespace {

TEST(ParallelForTest, EmptyRangeDoesNothing) {
  std::atomic<int> calls{0};
  ParallelFor(0, 0, [&](size_t) { ++calls; }, 8);
  ParallelFor(5, 5, [&](size_t) { ++calls; }, 8);
  ParallelFor(7, 3, [&](size_t) { ++calls; }, 8);  // Inverted range: empty.
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelFor(0, kCount, [&](size_t i) { ++visits[i]; }, 8);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, RespectsBeginOffset) {
  std::vector<int> out(10, 0);
  ParallelFor(4, 10, [&](size_t i) { out[i] = static_cast<int>(i); }, 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], 0);
  }
  for (size_t i = 4; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelForTest, SingleThreadRunsInOrder) {
  std::vector<size_t> order;
  ParallelFor(0, 5, [&](size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, PropagatesException) {
  EXPECT_THROW(
      ParallelFor(0, 100, [](size_t i) {
        if (i == 17) {
          throw std::runtime_error("boom");
        }
      }, 8),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionSkipsRemainingAndDrains) {
  // After the (serial-order) first failure, no later index may start; the
  // call still returns (no hang) and rethrows. With threads=1 the skip is
  // exact: indices after the throwing one never run.
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(0, 100, [&](size_t i) {
        if (i == 3) {
          throw std::runtime_error("boom");
        }
        ++ran;
      }, 1),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 3);
}

TEST(ParallelForTest, ExceptionUnderContentionStillPropagates) {
  for (int repeat = 0; repeat < 10; ++repeat) {
    EXPECT_THROW(
        ParallelFor(0, 64, [](size_t) { throw std::runtime_error("all fail"); }, 8),
        std::runtime_error);
  }
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Outer tasks saturate the pool and then run inner loops; caller
  // participation guarantees progress regardless of pool size.
  std::vector<std::atomic<int>> counts(16 * 16);
  ParallelFor(0, 16, [&](size_t outer) {
    ParallelFor(0, 16, [&, outer](size_t inner) { ++counts[outer * 16 + inner]; }, 4);
  }, 8);
  for (auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelSweepTest, RunsEveryTask) {
  std::vector<std::atomic<int>> ran(10);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < ran.size(); ++i) {
    tasks.push_back([&ran, i] { ++ran[i]; });
  }
  ParallelSweep(tasks, 4);
  for (auto& r : ran) {
    EXPECT_EQ(r.load(), 1);
  }
}

TEST(ParallelSweepTest, EmptyIsNoop) { ParallelSweep({}, 8); }

// The core determinism contract: a sweep whose tasks draw from
// TaskRng(base, index) produces bit-identical output for 1 worker and 8
// workers, run after run.
TEST(DeterminismTest, SweepOutputIdenticalAcrossThreadCounts) {
  constexpr size_t kTasks = 64;
  constexpr uint64_t kBase = 0x1234abcdULL;
  auto run_sweep = [&](size_t threads) {
    std::vector<uint64_t> out(kTasks, 0);
    ParallelFor(0, kTasks, [&](size_t i) {
      Rng rng = TaskRng(kBase, i);
      // A mix of draw types, as a real simulation task would use.
      uint64_t acc = 0;
      for (int d = 0; d < 200; ++d) {
        acc ^= rng();
        acc += rng.NextBelow(1000);
        acc ^= static_cast<uint64_t>(rng.NextDouble() * 1e15);
      }
      out[i] = acc;
    }, threads);
    return out;
  };
  const auto serial = run_sweep(1);
  const auto parallel_8 = run_sweep(8);
  const auto parallel_3 = run_sweep(3);
  EXPECT_EQ(serial, parallel_8);
  EXPECT_EQ(serial, parallel_3);
}

TEST(DeterminismTest, TaskSeedIsStableAndDistinct) {
  // Stable across calls.
  EXPECT_EQ(TaskSeed(42, 7), TaskSeed(42, 7));
  // Distinct across indices and bases (no collisions in a modest sweep).
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 4096; ++i) {
    seeds.push_back(TaskSeed(42, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(TaskSeed(1, 0), TaskSeed(2, 0));
}

TEST(DeterminismTest, TaskRngMatchesTaskSeed) {
  Rng from_seed(TaskSeed(99, 3));
  Rng from_task = TaskRng(99, 3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(from_seed(), from_task());
  }
}

TEST(ThreadPoolTest, RunsSubmittedJobs) {
  std::atomic<int> ran{0};
  std::mutex mutex;
  std::condition_variable cv;
  // Declared after what the jobs touch, so its destructor joins the
  // workers before the last job's notify can outlive `cv`.
  ThreadPool pool(4);
  constexpr int kJobs = 100;
  for (int i = 0; i < kJobs; ++i) {
    pool.Submit([&] {
      if (ran.fetch_add(1) + 1 == kJobs) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return ran.load() >= kJobs; });
  EXPECT_EQ(ran.load(), kJobs);
}

TEST(DefaultThreadsTest, OverrideAndRestore) {
  const size_t hardware = HardwareThreads();
  EXPECT_GE(hardware, 1u);
  SetDefaultThreads(3);
  EXPECT_EQ(DefaultThreads(), 3u);
  SetDefaultThreads(0);
  EXPECT_EQ(DefaultThreads(), hardware);
}

}  // namespace
}  // namespace edk
