#include "src/obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace edk::obs {
namespace {

TraceEvent MakeEvent(uint64_t ts, TimeDomain domain = TimeDomain::kSim) {
  TraceEvent event;
  event.ts = ts;
  event.id = ts + 1;
  event.domain = domain;
  return event;
}

TEST(FlightRecorderTest, KeepsEverythingBelowCapacity) {
  FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Append(MakeEvent(i));
  }
  EXPECT_EQ(recorder.size(), 5u);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.dropped(TimeDomain::kSim), 0u);
  std::vector<TraceEvent> out;
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].ts, i);
  }
}

TEST(FlightRecorderTest, WraparoundKeepsNewestAndCountsDrops) {
  FlightRecorder recorder(4);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Append(MakeEvent(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.dropped(TimeDomain::kSim), 6u);
  // Oldest-first means the retained window is exactly the last 4 appends.
  std::vector<TraceEvent> out;
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].ts, 6 + i);
  }
}

TEST(FlightRecorderTest, DropsAreCountedPerDomainOfTheOverwrittenEvent) {
  FlightRecorder recorder(2);
  recorder.Append(MakeEvent(0, TimeDomain::kSim));
  recorder.Append(MakeEvent(1, TimeDomain::kWall));
  // Overwrites the kSim event, then the kWall event.
  recorder.Append(MakeEvent(2, TimeDomain::kWall));
  recorder.Append(MakeEvent(3, TimeDomain::kWall));
  EXPECT_EQ(recorder.dropped(TimeDomain::kSim), 1u);
  EXPECT_EQ(recorder.dropped(TimeDomain::kWall), 1u);
}

TEST(FlightRecorderTest, CollectAppendsWithoutClearing) {
  FlightRecorder recorder(4);
  recorder.Append(MakeEvent(7));
  std::vector<TraceEvent> out;
  out.push_back(MakeEvent(99));
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ts, 99u);
  EXPECT_EQ(out[1].ts, 7u);
  // Collect is non-destructive.
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(FlightRecorderTest, ResetWithCapacityEmptiesAndRearms) {
  FlightRecorder recorder(2);
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Append(MakeEvent(i));
  }
  EXPECT_GT(recorder.dropped(TimeDomain::kSim), 0u);
  recorder.ResetWithCapacity(3);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.capacity(), 3u);
  EXPECT_EQ(recorder.dropped(TimeDomain::kSim), 0u);
  for (uint64_t i = 0; i < 3; ++i) {
    recorder.Append(MakeEvent(10 + i));
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.dropped(TimeDomain::kSim), 0u);
  std::vector<TraceEvent> out;
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.front().ts, 10u);
  EXPECT_EQ(out.back().ts, 12u);
}

TEST(FlightRecorderTest, AppendNumberedCountsFromOneAcrossResets) {
  FlightRecorder recorder(2);
  for (int i = 0; i < 3; ++i) {
    recorder.AppendNumbered(MakeEvent(0));  // The third overwrites id 1.
  }
  std::vector<TraceEvent> out;
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2u);
  EXPECT_EQ(out[1].id, 3u);
  recorder.ResetWithCapacity(2);
  recorder.AppendNumbered(MakeEvent(0));
  out.clear();
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 4u);
}

// Several writers share one ring while a reader snapshots it, as the TCP
// server's io workers and stats scrapers do with the slow-request log.
// Every snapshot must list ids in strictly increasing order, so a reader
// that resumes after the last id it saw never misses a later entry.
TEST(FlightRecorderTest, NumberedIdsStayOrderedUnderConcurrentWriters) {
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 5'000;
  FlightRecorder recorder(64);
  std::atomic<bool> done{false};
  std::atomic<int> disorders{0};
  std::thread reader([&] {
    std::vector<TraceEvent> out;
    while (!done.load(std::memory_order_acquire)) {
      out.clear();
      recorder.Collect(&out);
      for (size_t i = 1; i < out.size(); ++i) {
        if (out[i].id <= out[i - 1].id) {
          disorders.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        recorder.AppendNumbered(MakeEvent(static_cast<uint64_t>(w), TimeDomain::kWall));
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(disorders.load(), 0);

  std::vector<TraceEvent> out;
  recorder.Collect(&out);
  ASSERT_EQ(out.size(), 64u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, kWriters * kAppendsPerWriter - 63 + i);
  }
  EXPECT_EQ(recorder.dropped(TimeDomain::kWall), kWriters * kAppendsPerWriter - 64u);
}

}  // namespace
}  // namespace edk::obs
