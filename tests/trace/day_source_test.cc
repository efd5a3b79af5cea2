// TraceDaySource on a trace large enough that a day splits into several
// peer blocks: the blocks partition the day's snapshots in ascending peer
// order, and the day view lists exactly the observed peers. (The analyses
// over both sources are checked in tests/analysis/day_sweep_test.cc, on a
// trace whose days fit in one in-RAM block.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/trace/day_source.h"

namespace edk {
namespace {

using Snapshots = std::vector<std::pair<uint32_t, std::vector<uint32_t>>>;

// Peers a little over two blocks; some absent per day, some observed with
// an empty cache.
Trace MultiBlockTrace() {
  Trace trace;
  for (int f = 0; f < 40; ++f) {
    trace.AddFile(FileMeta{});
  }
  const uint32_t peers = 2 * TraceDaySource::kPeersPerBlock + 17;
  for (uint32_t p = 0; p < peers; ++p) {
    const PeerId id = trace.AddPeer(PeerInfo{});
    for (int day = 3; day <= 5; ++day) {
      if ((p * 7 + static_cast<uint32_t>(day)) % 3 == 0) {
        continue;
      }
      std::vector<FileId> files;
      if (p % 11 != 0) {
        files = {FileId(p % 40), FileId((p + 13 * static_cast<uint32_t>(day)) % 40)};
        std::sort(files.begin(), files.end());
        files.erase(std::unique(files.begin(), files.end()), files.end());
      }
      trace.AddSnapshot(id, day, files);
    }
  }
  return trace;
}

Snapshots FromTimelines(const Trace& trace, int day) {
  Snapshots out;
  for (uint32_t p = 0; p < trace.peer_count(); ++p) {
    for (const CacheSnapshot& snapshot : trace.timeline(PeerId(p)).snapshots) {
      if (snapshot.day == day) {
        std::vector<uint32_t> files;
        for (const FileId f : snapshot.files) {
          files.push_back(f.value);
        }
        out.emplace_back(p, std::move(files));
      }
    }
  }
  return out;
}

TEST(TraceDaySourceTest, BlocksPartitionTheDayInPeerOrder) {
  const Trace trace = MultiBlockTrace();
  const TraceDaySource source(trace);
  EXPECT_EQ(source.BlockCount(2), 0u);
  EXPECT_EQ(source.BlockCount(6), 0u);
  for (int day = 3; day <= 5; ++day) {
    ASSERT_EQ(source.BlockCount(day), 3u);
    const Snapshots expect = FromTimelines(trace, day);
    TraceDaySource::Scratch scratch;
    Snapshots by_block;
    for (size_t b = 0; b < source.BlockCount(day); ++b) {
      EXPECT_TRUE(source.ForEachSnapshotInBlock(
          day, b, scratch, [&](uint32_t peer, const uint32_t* files, size_t count) {
            by_block.emplace_back(peer, std::vector<uint32_t>(files, files + count));
          }));
    }
    EXPECT_EQ(by_block, expect) << "day " << day;
    Snapshots whole;
    EXPECT_TRUE(source.ForEachSnapshot(
        day, scratch, [&](uint32_t peer, const uint32_t* files, size_t count) {
          whole.emplace_back(peer, std::vector<uint32_t>(files, files + count));
        }));
    EXPECT_EQ(whole, expect) << "day " << day;
  }
}

TEST(TraceDaySourceTest, ReadDayListsTheObservedPeers) {
  const Trace trace = MultiBlockTrace();
  for (int day = 2; day <= 6; ++day) {
    const auto view = TraceDaySource(trace).ReadDay(day);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->day, day);
    std::vector<uint32_t> observed;
    for (const auto& [peer, files] : FromTimelines(trace, day)) {
      observed.push_back(peer);
      const auto row = view->store.PeerFiles(peer);
      EXPECT_EQ(std::vector<uint32_t>(row.begin(), row.end()), files);
    }
    EXPECT_EQ(view->peers, observed) << "day " << day;
    EXPECT_EQ(view->store.peer_count(), trace.peer_count());
  }
}

}  // namespace
}  // namespace edk
