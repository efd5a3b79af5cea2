#include "src/semantic/dynamic_sim.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/trace/filter.h"
#include "src/trace/stream/convert.h"
#include "src/workload/generator.h"

namespace edk {
namespace {

// Hand-built dense trace: two peers with persistent overlap plus churn.
Trace MakeDynamicTrace() {
  Trace trace;
  for (int f = 0; f < 20; ++f) {
    trace.AddFile(FileMeta{});
  }
  const PeerId a = trace.AddPeer(PeerInfo{});
  const PeerId b = trace.AddPeer(PeerInfo{});
  // Day 1: initial caches (pre-owned, no requests).
  trace.AddSnapshot(a, 1, {FileId(0), FileId(1)});
  trace.AddSnapshot(b, 1, {FileId(0), FileId(2)});
  // Day 2: a newly acquires file 2 (b serves it), b acquires file 1.
  trace.AddSnapshot(a, 2, {FileId(0), FileId(1), FileId(2)});
  trace.AddSnapshot(b, 2, {FileId(0), FileId(1), FileId(2)});
  // Day 3: a acquires file 3 which nobody served -> unresolvable.
  trace.AddSnapshot(a, 3, {FileId(0), FileId(1), FileId(2), FileId(3)});
  trace.AddSnapshot(b, 3, {FileId(0), FileId(1), FileId(2)});
  return trace;
}

TEST(DynamicSimTest, CountsRequestsPerDay) {
  DynamicSimConfig config;
  config.list_size = 5;
  const auto result = RunDynamicSearchSimulation(MakeDynamicTrace(), config);
  ASSERT_EQ(result.days.size(), 3u);
  EXPECT_EQ(result.days[0].requests, 0u);  // Initial caches are seeds.
  EXPECT_EQ(result.days[1].requests, 2u);  // a<-2, b<-1.
  EXPECT_EQ(result.days[2].requests, 0u);  // File 3 unresolvable.
  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.unresolvable, 1u);
  // Both day-2 requests are answerable (the counterpart held the file
  // since day 1); with empty lists they resolve via fallback.
  EXPECT_EQ(result.hits + result.fallbacks, 2u);
}

TEST(DynamicSimTest, NeighbourListsLearnAcrossDays) {
  // Peer a gets served by b on day 2; on day 3 a asks b first and hits.
  Trace trace;
  for (int f = 0; f < 10; ++f) {
    trace.AddFile(FileMeta{});
  }
  const PeerId a = trace.AddPeer(PeerInfo{});
  const PeerId b = trace.AddPeer(PeerInfo{});
  trace.AddSnapshot(a, 1, {FileId(9)});
  trace.AddSnapshot(b, 1, {FileId(0), FileId(1), FileId(9)});
  trace.AddSnapshot(a, 2, {FileId(0), FileId(9)});            // Request 0 <- b.
  trace.AddSnapshot(b, 2, {FileId(0), FileId(1), FileId(9)});
  trace.AddSnapshot(a, 3, {FileId(0), FileId(1), FileId(9)});  // Request 1 <- b.
  trace.AddSnapshot(b, 3, {FileId(0), FileId(1), FileId(9)});

  DynamicSimConfig config;
  config.list_size = 5;
  const auto result = RunDynamicSearchSimulation(trace, config);
  EXPECT_EQ(result.requests, 2u);
  EXPECT_EQ(result.fallbacks, 1u);  // Day 2: list empty.
  EXPECT_EQ(result.hits, 1u);       // Day 3: b is in a's list.
}

TEST(DynamicSimTest, OfflinePeersCannotServe) {
  Trace trace;
  trace.AddFile(FileMeta{});
  trace.AddFile(FileMeta{});
  const PeerId a = trace.AddPeer(PeerInfo{});
  const PeerId b = trace.AddPeer(PeerInfo{});
  trace.AddSnapshot(b, 1, {FileId(0)});
  // Day 2: b offline; a appears and acquires file 0 -> unresolvable.
  trace.AddSnapshot(a, 1, {});
  trace.AddSnapshot(a, 2, {FileId(0)});
  DynamicSimConfig config;
  const auto result = RunDynamicSearchSimulation(trace, config);
  EXPECT_EQ(result.requests, 0u);
  EXPECT_EQ(result.unresolvable, 1u);
}

TEST(DynamicSimTest, EmptyTrace) {
  const auto result = RunDynamicSearchSimulation(Trace{}, DynamicSimConfig{});
  EXPECT_EQ(result.requests, 0u);
  EXPECT_TRUE(result.days.empty());
  EXPECT_DOUBLE_EQ(result.HitRate(), 0.0);
}

TEST(DynamicSimTest, DeterministicForSeed) {
  WorkloadConfig workload = SmallWorkloadConfig();
  workload.num_peers = 400;
  workload.num_files = 3'000;
  workload.num_days = 12;
  const Trace extrapolated = Extrapolate(FilterDuplicates(GenerateWorkload(workload).trace));
  DynamicSimConfig config;
  config.seed = 77;
  const auto a = RunDynamicSearchSimulation(extrapolated, config);
  const auto b = RunDynamicSearchSimulation(extrapolated, config);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.requests, b.requests);
}

TEST(DynamicSimTest, SemanticBeatsRandomOnGeneratedTrace) {
  WorkloadConfig workload = SmallWorkloadConfig();
  workload.num_peers = 800;
  workload.num_files = 5'000;
  workload.num_days = 16;
  workload.seed = 31;
  const Trace extrapolated = Extrapolate(FilterDuplicates(GenerateWorkload(workload).trace));

  DynamicSimConfig lru;
  lru.strategy = StrategyKind::kLru;
  lru.list_size = 10;
  DynamicSimConfig random = lru;
  random.strategy = StrategyKind::kRandom;
  const auto lru_result = RunDynamicSearchSimulation(extrapolated, lru);
  const auto random_result = RunDynamicSearchSimulation(extrapolated, random);
  ASSERT_GT(lru_result.requests, 100u);
  EXPECT_GT(lru_result.HitRate(), random_result.HitRate());
}

TEST(DynamicSimTest, HitRateDoesNotDecayLate) {
  WorkloadConfig workload = SmallWorkloadConfig();
  workload.num_peers = 800;
  workload.num_files = 5'000;
  workload.num_days = 18;
  workload.seed = 33;
  const Trace extrapolated = Extrapolate(FilterDuplicates(GenerateWorkload(workload).trace));
  DynamicSimConfig config;
  config.list_size = 10;
  const auto result = RunDynamicSearchSimulation(extrapolated, config);
  ASSERT_GE(result.days.size(), 12u);
  auto window = [&result](size_t begin, size_t end) {
    uint64_t requests = 0;
    uint64_t hits = 0;
    for (size_t d = begin; d < end && d < result.days.size(); ++d) {
      requests += result.days[d].requests;
      hits += result.days[d].hits;
    }
    return requests == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(requests);
  };
  const double early = window(3, 8);          // After warm-up.
  const double late = window(result.days.size() - 5, result.days.size());
  EXPECT_GT(late, early * 0.7) << "early " << early << " late " << late;
}

TEST(DynamicSimTest, StreamingReplayIsBitIdenticalToTheTracePath) {
  // The reader's day source must reproduce the in-RAM replay exactly —
  // every rng draw hinges on request enumeration order, so this catches
  // any ordering divergence between the two sources. Checked under both
  // day encodings; the tiny block target forces multi-block days.
  WorkloadConfig workload = SmallWorkloadConfig();
  workload.num_peers = 400;
  workload.num_files = 3'000;
  workload.num_days = 12;
  workload.seed = 21;
  const Trace extrapolated =
      Extrapolate(FilterDuplicates(GenerateWorkload(workload).trace));
  DynamicSimConfig config;
  config.seed = 9;
  config.list_size = 8;
  const DynamicSimResult expect =
      RunDynamicSearchSimulation(extrapolated, config);
  ASSERT_GT(expect.requests, 100u);

  for (const uint64_t target : {uint64_t{0}, uint64_t{4096}}) {
    const std::string path = ::testing::TempDir() + "/dynamic_stream." +
                             std::to_string(target) + ".edk2";
    std::string error;
    ASSERT_TRUE(stream::SaveTraceV2ToFile(extrapolated, path, &error,
                                          {.block_target_bytes = target}))
        << error;
    auto reader = stream::TraceReader::Open(path, &error);
    ASSERT_TRUE(reader.has_value()) << error;
    const auto got = RunDynamicSearchSimulation(*reader, config, &error);
    ASSERT_TRUE(got.has_value()) << error;
    EXPECT_EQ(got->requests, expect.requests) << "target " << target;
    EXPECT_EQ(got->hits, expect.hits) << "target " << target;
    EXPECT_EQ(got->fallbacks, expect.fallbacks) << "target " << target;
    EXPECT_EQ(got->unresolvable, expect.unresolvable) << "target " << target;
    ASSERT_EQ(got->days.size(), expect.days.size()) << "target " << target;
    for (size_t d = 0; d < expect.days.size(); ++d) {
      EXPECT_EQ(got->days[d].day, expect.days[d].day);
      EXPECT_EQ(got->days[d].requests, expect.days[d].requests);
      EXPECT_EQ(got->days[d].hits, expect.days[d].hits);
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace edk
