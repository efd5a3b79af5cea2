// The day-sweep analyses on every day source (DESIGN.md §6h).
//
// Each analysis has one body, written against a day source
// (src/trace/day_source.h). This suite runs it on every source — the
// in-RAM Trace, a block-less (tag 0x03) v2 file and a blocked (tag 0x04)
// v2 file — at 1, 2 and 8 threads, and compares each result with a
// brute-force oracle written below from the analysis's definition, sharing
// no code with it: integers equal, doubles bit-equal. A golden digest of
// all seven outputs pins them to the values of the earlier twin
// implementations. A generated small workload (not a hand-built toy) keeps
// the comparison honest: multi-week span, churn, empty caches.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/clustering.h"
#include "src/analysis/overlap.h"
#include "src/analysis/popularity.h"
#include "src/analysis/spread.h"
#include "src/analysis/streaming.h"
#include "src/exec/parallel.h"
#include "src/semantic/search_sim.h"
#include "src/trace/day_source.h"
#include "src/trace/stream/convert.h"
#include "src/trace/stream/trace_reader.h"
#include "src/workload/generator.h"

namespace edk {
namespace {

// --- Oracle -----------------------------------------------------------------
// Straight from the definitions, on the Trace's timelines: slow, serial and
// independent of the code under test.
namespace oracle {

using Caches = std::map<uint32_t, std::vector<uint32_t>>;  // Observed peers.

Caches CachesOn(const Trace& trace, int day) {
  Caches out;
  for (uint32_t p = 0; p < trace.peer_count(); ++p) {
    for (const CacheSnapshot& snapshot : trace.timeline(PeerId(p)).snapshots) {
      if (snapshot.day == day) {
        std::vector<uint32_t>& files = out[p];
        for (const FileId f : snapshot.files) {
          files.push_back(f.value);
        }
      }
    }
  }
  return out;
}

std::map<uint32_t, uint32_t> SourcesOn(const Trace& trace, int day) {
  std::map<uint32_t, uint32_t> sources;
  for (const auto& [peer, files] : CachesOn(trace, day)) {
    for (const uint32_t f : files) {
      ++sources[f];
    }
  }
  return sources;
}

uint32_t Common(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  std::vector<uint32_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return static_cast<uint32_t>(both.size());
}

// Overlap of every observed pair p < q.
template <typename Fn>
void ForEachPair(const Caches& caches, Fn&& fn) {
  for (auto a = caches.begin(); a != caches.end(); ++a) {
    for (auto b = std::next(a); b != caches.end(); ++b) {
      fn(a->first, b->first, Common(a->second, b->second));
    }
  }
}

std::vector<DailyActivity> DailyActivityOf(const Trace& trace) {
  std::vector<DailyActivity> out;
  std::set<uint32_t> seen;
  for (int day = trace.first_day(); day <= trace.last_day(); ++day) {
    DailyActivity row;
    row.day = day;
    for (const auto& [peer, files] : CachesOn(trace, day)) {
      ++row.clients_scanned;
      row.non_empty_caches += files.empty() ? 0 : 1;
      row.files_seen += files.size();
      for (const uint32_t f : files) {
        row.new_files += seen.insert(f).second ? 1 : 0;
      }
    }
    row.total_files = seen.size();
    out.push_back(row);
  }
  return out;
}

std::vector<uint32_t> RankedSourcesOn(const Trace& trace, int day) {
  std::vector<uint32_t> ranked;
  for (const auto& [file, sources] : SourcesOn(trace, day)) {
    ranked.push_back(sources);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  return ranked;
}

std::vector<double> SpreadOf(const Trace& trace, uint32_t file) {
  std::vector<double> out;
  for (int day = trace.first_day(); day <= trace.last_day(); ++day) {
    const Caches caches = CachesOn(trace, day);
    double holders = 0;
    for (const auto& [peer, files] : caches) {
      holders += std::count(files.begin(), files.end(), file) > 0 ? 1 : 0;
    }
    out.push_back(caches.empty() ? 0.0
                                 : holders / static_cast<double>(caches.size()));
  }
  return out;
}

std::vector<std::vector<uint32_t>> RanksOf(const Trace& trace,
                                           const std::vector<FileId>& files) {
  std::vector<std::vector<uint32_t>> out(files.size());
  for (int day = trace.first_day(); day <= trace.last_day(); ++day) {
    const std::map<uint32_t, uint32_t> sources = SourcesOn(trace, day);
    for (size_t i = 0; i < files.size(); ++i) {
      const auto own = sources.find(files[i].value);
      uint32_t rank = 0;
      if (own != sources.end()) {
        rank = 1;
        for (const auto& [file, count] : sources) {
          const bool ahead = count > own->second ||
                             (count == own->second && file < own->first);
          rank += ahead ? 1 : 0;
        }
      }
      out[i].push_back(rank);
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, uint64_t>> HistogramOn(const Trace& trace,
                                                       int day) {
  std::map<uint32_t, uint64_t> pairs;
  ForEachPair(CachesOn(trace, day), [&](uint32_t, uint32_t, uint32_t common) {
    if (common > 0) {
      ++pairs[common];
    }
  });
  return {pairs.begin(), pairs.end()};
}

ClusteringCurve CurveOn(const Trace& trace, int day, size_t max_k,
                        const std::vector<bool>* mask) {
  Caches caches = CachesOn(trace, day);
  if (mask != nullptr) {
    for (auto& [peer, files] : caches) {
      std::erase_if(files, [&](uint32_t f) { return f >= mask->size() || !(*mask)[f]; });
    }
  }
  ClusteringCurve curve;
  curve.pairs_at_least.assign(max_k + 2, 0);
  ForEachPair(caches, [&](uint32_t, uint32_t, uint32_t common) {
    for (size_t k = 1; k <= std::min<size_t>(common, max_k + 1); ++k) {
      ++curve.pairs_at_least[k];
    }
  });
  curve.probability.assign(max_k + 1, 0.0);
  for (size_t k = 1; k <= max_k; ++k) {
    if (curve.pairs_at_least[k] > 0) {
      curve.probability[k] = static_cast<double>(curve.pairs_at_least[k + 1]) /
                             static_cast<double>(curve.pairs_at_least[k]);
    }
  }
  return curve;
}

// Day-one pairs with exactly `overlap` common files, ascending.
std::vector<std::pair<uint32_t, uint32_t>> CohortPairs(const Trace& trace,
                                                       uint32_t overlap) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  ForEachPair(CachesOn(trace, trace.first_day()),
              [&](uint32_t p, uint32_t q, uint32_t common) {
                if (common == overlap) {
                  out.emplace_back(p, q);
                }
              });
  return out;
}

// Mean overlap of `pairs` on each day, over the pairs with both peers
// observed that day.
std::vector<double> MeanOverlaps(
    const Trace& trace, const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  std::vector<double> out;
  for (int day = trace.first_day(); day <= trace.last_day(); ++day) {
    const Caches caches = CachesOn(trace, day);
    double sum = 0;
    double counted = 0;
    for (const auto& [p, q] : pairs) {
      if (caches.contains(p) && caches.contains(q)) {
        sum += Common(caches.at(p), caches.at(q));
        ++counted;
      }
    }
    out.push_back(counted == 0 ? 0.0 : sum / counted);
  }
  return out;
}

}  // namespace oracle

// --- Fixture ----------------------------------------------------------------

enum class SourceKind { kInRam, kFlatV2, kBlockedV2 };

struct GridParam {
  SourceKind source;
  size_t threads;
};

std::string GridName(const GridParam& param) {
  const char* source = param.source == SourceKind::kInRam    ? "InRam"
                       : param.source == SourceKind::kFlatV2 ? "FlatV2"
                                                             : "BlockedV2";
  return std::string(source) + "_" + std::to_string(param.threads) + "threads";
}

void PrintTo(const GridParam& param, std::ostream* os) { *os << GridName(param); }

class DaySweepData : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config = SmallWorkloadConfig();
    config.seed = 7;
    trace_ = new Trace(GenerateWorkload(config).trace);
    // ctest runs each test as its own process; a shared path would let one
    // process truncate the file while a sibling still has it mmapped.
    const std::string stem =
        ::testing::TempDir() + "/day_sweep." + std::to_string(::getpid());
    // One block-less file and one with a tiny block target, so every day
    // splits into several blocks.
    paths_[0] = stem + ".flat.edk2";
    paths_[1] = stem + ".blocked.edk2";
    std::string error;
    ASSERT_TRUE(stream::SaveTraceV2ToFile(*trace_, paths_[0], &error,
                                          {.block_target_bytes = 0}))
        << error;
    ASSERT_TRUE(stream::SaveTraceV2ToFile(*trace_, paths_[1], &error,
                                          {.block_target_bytes = 256}))
        << error;
    for (int i = 0; i < 2; ++i) {
      auto opened = stream::TraceReader::Open(paths_[i], &error);
      ASSERT_TRUE(opened.has_value()) << paths_[i] << ": " << error;
      readers_[i] = new stream::TraceReader(std::move(*opened));
    }
  }

  static void TearDownTestSuite() {
    for (int i = 0; i < 2; ++i) {
      delete readers_[i];
      readers_[i] = nullptr;
      std::remove(paths_[i].c_str());
    }
    delete trace_;
    trace_ = nullptr;
  }

  static const Trace& trace() { return *trace_; }

  static Trace* trace_;
  static stream::TraceReader* readers_[2];
  static std::string paths_[2];
};

Trace* DaySweepData::trace_ = nullptr;
stream::TraceReader* DaySweepData::readers_[2] = {nullptr, nullptr};
std::string DaySweepData::paths_[2];

class DaySweepTest : public DaySweepData,
                     public ::testing::WithParamInterface<GridParam> {
 protected:
  void SetUp() override { SetDefaultThreads(GetParam().threads); }
  void TearDown() override { SetDefaultThreads(0); }

  // The reader under test, or nullptr for the in-RAM source.
  static const stream::TraceReader* reader() {
    switch (GetParam().source) {
      case SourceKind::kInRam:
        return nullptr;
      case SourceKind::kFlatV2:
        return readers_[0];
      case SourceKind::kBlockedV2:
        return readers_[1];
    }
    return nullptr;
  }

  // The seven analyses through the entry points of the source under test.
  static std::vector<DailyActivity> Activity() {
    return reader() != nullptr ? StreamingDailyActivity(*reader())
                               : ComputeDailyActivity(trace());
  }
  static std::vector<uint32_t> Ranked(int day) {
    return reader() != nullptr ? StreamingRankedSourcesOnDay(*reader(), day)
                               : RankedSourcesOnDay(trace(), day);
  }
  static std::vector<double> Spread(FileId file) {
    return reader() != nullptr ? StreamingFileSpreadOverTime(*reader(), file)
                               : FileSpreadOverTime(trace(), file);
  }
  static std::vector<std::vector<uint32_t>> Ranks(const std::vector<FileId>& files) {
    return reader() != nullptr ? StreamingFileRanksOverTime(*reader(), files)
                               : FileRanksOverTime(trace(), files);
  }
  static std::vector<std::pair<uint32_t, uint64_t>> Histogram(int day) {
    return reader() != nullptr ? StreamingOverlapHistogramOnDay(*reader(), day)
                               : OverlapHistogramOnDay(trace(), day);
  }
  static std::vector<OverlapCohort> Evolution(const OverlapEvolutionOptions& options) {
    return reader() != nullptr ? StreamingOverlapEvolution(*reader(), options)
                               : ComputeOverlapEvolution(trace(), options);
  }
  static ClusteringCurve Curve(int day, size_t max_k,
                               const std::vector<bool>* mask = nullptr) {
    return reader() != nullptr
               ? StreamingClusteringCurveOnDay(*reader(), day, max_k, mask)
               : ClusteringCurveOnDay(trace(), day, max_k, mask);
  }
  static std::optional<DayCaches> View(int day) {
    return reader() != nullptr ? stream::ReaderDaySource(*reader()).ReadDay(day)
                               : TraceDaySource(trace()).ReadDay(day);
  }

  // Days worth checking one by one: both ends, the middle, and a day
  // outside the trace (nobody observed).
  static std::vector<int> SampleDays() {
    const int first = trace().first_day();
    const int last = trace().last_day();
    return {first, first + 1, (first + last) / 2, last, last + 100};
  }
};

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& expect, const std::string& what) {
  ASSERT_EQ(got.size(), expect.size()) << what;
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &expect[i], sizeof(double)), 0)
        << what << " index " << i << ": " << got[i] << " vs " << expect[i];
  }
}

void ExpectCurveEqual(const ClusteringCurve& got, const ClusteringCurve& expect,
                      const std::string& what) {
  EXPECT_EQ(got.pairs_at_least, expect.pairs_at_least) << what;
  ExpectBitEqual(got.probability, expect.probability, what);
}

// --- The input is worth comparing on ----------------------------------------

TEST_F(DaySweepData, WorkloadHasTheEdgeCases) {
  // A multi-day span, peers absent on some days, peers observed with an
  // empty cache, and a blocked file whose days really do split into
  // several blocks.
  EXPECT_GT(trace().last_day() - trace().first_day(), 5);
  EXPECT_GT(trace().peer_count(), 100u);
  const stream::TraceReader& blocked = *readers_[1];
  ASSERT_FALSE(blocked.days().empty());
  uint64_t total_snapshots = 0;
  uint64_t total_blocks = 0;
  for (const auto& info : blocked.days()) {
    total_snapshots += info.snapshots;
    total_blocks += stream::TraceReader::BlockCount(info);
  }
  EXPECT_LT(total_snapshots, blocked.days().size() * trace().peer_count());
  EXPECT_GT(total_blocks, blocked.days().size());
  bool empty_cache_observed = false;
  for (uint32_t p = 0; p < trace().peer_count() && !empty_cache_observed; ++p) {
    for (const CacheSnapshot& snapshot : trace().timeline(PeerId(p)).snapshots) {
      empty_cache_observed |= snapshot.files.empty();
    }
  }
  EXPECT_TRUE(empty_cache_observed);
}

// --- Every analysis against the oracle, on every source ---------------------

TEST_P(DaySweepTest, DailyActivityMatchesTheOracle) {
  const auto expect = oracle::DailyActivityOf(trace());
  const auto got = Activity();
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].day, expect[i].day);
    EXPECT_EQ(got[i].clients_scanned, expect[i].clients_scanned) << i;
    EXPECT_EQ(got[i].non_empty_caches, expect[i].non_empty_caches) << i;
    EXPECT_EQ(got[i].files_seen, expect[i].files_seen) << i;
    EXPECT_EQ(got[i].new_files, expect[i].new_files) << i;
    EXPECT_EQ(got[i].total_files, expect[i].total_files) << i;
  }
}

TEST_P(DaySweepTest, RankedSourcesOnDayMatchesTheOracle) {
  for (int day = trace().first_day(); day <= trace().last_day() + 1; ++day) {
    EXPECT_EQ(Ranked(day), oracle::RankedSourcesOn(trace(), day)) << "day " << day;
  }
}

TEST_P(DaySweepTest, FileSpreadOverTimeMatchesTheOracle) {
  const uint32_t files = static_cast<uint32_t>(trace().file_count());
  for (const uint32_t f : {0u, 1u, 7u, 23u, files - 1, files, files + 50}) {
    ExpectBitEqual(Spread(FileId(f)), oracle::SpreadOf(trace(), f),
                   "file " + std::to_string(f));
  }
}

TEST_P(DaySweepTest, FileRanksOverTimeMatchesTheOracle) {
  std::vector<FileId> files;
  for (uint32_t f = 0; f < trace().file_count() && files.size() < 12; f += 5) {
    files.push_back(FileId(f));
  }
  EXPECT_EQ(Ranks(files), oracle::RanksOf(trace(), files));
}

TEST_P(DaySweepTest, FileRanksOfAnOutOfRangeFileAreAllZero) {
  // A file id at or past the file table is held by nobody: rank 0 on every
  // day, like FileSpreadOverTime's 0.0, and no read past the counts.
  const uint32_t files = static_cast<uint32_t>(trace().file_count());
  const std::vector<FileId> query = {FileId(files), FileId(3), FileId(files + 1000)};
  const auto got = Ranks(query);
  const size_t days = static_cast<size_t>(trace().last_day() - trace().first_day() + 1);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::vector<uint32_t>(days, 0));
  EXPECT_EQ(got[2], std::vector<uint32_t>(days, 0));
  EXPECT_EQ(got[1], oracle::RanksOf(trace(), {FileId(3)})[0]);
}

TEST_P(DaySweepTest, OverlapHistogramOnDayMatchesTheOracle) {
  for (const int day : SampleDays()) {
    EXPECT_EQ(Histogram(day), oracle::HistogramOn(trace(), day)) << "day " << day;
  }
}

TEST_P(DaySweepTest, OverlapEvolutionMatchesTheOracle) {
  // No subsampling: each cohort holds exactly the day-one pairs of its
  // overlap, and its daily means follow from them.
  OverlapEvolutionOptions options;
  options.cohort_overlaps = {2, 5, 9};
  options.max_pairs_per_cohort = 1'000'000;
  const auto got = Evolution(options);
  ASSERT_EQ(got.size(), options.cohort_overlaps.size());
  for (size_t c = 0; c < got.size(); ++c) {
    const uint32_t overlap = options.cohort_overlaps[c];
    const auto expect_pairs = oracle::CohortPairs(trace(), overlap);
    ASSERT_FALSE(expect_pairs.empty()) << "cohort " << overlap;
    EXPECT_EQ(got[c].initial_overlap, overlap);
    EXPECT_EQ(got[c].pair_count, expect_pairs.size());
    auto pairs = got[c].pairs;
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, expect_pairs) << "cohort " << overlap;
    ExpectBitEqual(got[c].mean_overlap, oracle::MeanOverlaps(trace(), expect_pairs),
                   "cohort " + std::to_string(overlap));
  }
}

TEST_P(DaySweepTest, SubsampledOverlapEvolutionMatchesTheOracle) {
  // Reservoir-sampled cohorts: the sample is the golden digest's business;
  // here every sampled pair must belong to its cohort and the daily means
  // must be those of the sample.
  OverlapEvolutionOptions options;
  options.max_pairs_per_cohort = 50;
  options.seed = 11;
  const auto got = Evolution(options);
  ASSERT_EQ(got.size(), options.cohort_overlaps.size());
  for (size_t c = 0; c < got.size(); ++c) {
    const auto cohort = oracle::CohortPairs(trace(), got[c].initial_overlap);
    EXPECT_EQ(got[c].pair_count, cohort.size());
    EXPECT_EQ(got[c].pairs.size(), std::min<size_t>(cohort.size(), 50));
    for (const auto& pair : got[c].pairs) {
      EXPECT_TRUE(std::binary_search(cohort.begin(), cohort.end(), pair));
    }
    ExpectBitEqual(got[c].mean_overlap, oracle::MeanOverlaps(trace(), got[c].pairs),
                   "cohort " + std::to_string(got[c].initial_overlap));
  }
}

TEST_P(DaySweepTest, ClusteringCurveOnDayMatchesTheOracle) {
  std::vector<bool> even(trace().file_count(), false);
  for (size_t f = 0; f < even.size(); f += 2) {
    even[f] = true;
  }
  for (const int day : SampleDays()) {
    ExpectCurveEqual(Curve(day, 8), oracle::CurveOn(trace(), day, 8, nullptr),
                     "day " + std::to_string(day));
    ExpectCurveEqual(Curve(day, 6, &even), oracle::CurveOn(trace(), day, 6, &even),
                     "masked, day " + std::to_string(day));
  }
}

// --- Golden digest ----------------------------------------------------------

class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const T& value : values) {
      Add(value);
    }
  }
  void Add(uint32_t value) { Add(static_cast<uint64_t>(value)); }
  void Add(const std::pair<uint32_t, uint64_t>& entry) {
    Add(entry.first);
    Add(entry.second);
  }
  void Add(const std::pair<uint32_t, uint32_t>& pair) {
    Add(pair.first);
    Add(pair.second);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// FNV-1a over all seven outputs on SmallWorkloadConfig (seed 7), recorded
// from the in-RAM analyses before they were unified with their streaming
// twins; every source must still produce it.
constexpr uint64_t kGoldenDigest = 0x6de7fca5d41ea337ULL;

TEST_P(DaySweepTest, AllSevenOutputsMatchTheGoldenDigest) {
  Digest digest;
  for (const DailyActivity& row : Activity()) {
    digest.Add(static_cast<uint64_t>(row.day));
    digest.Add(row.clients_scanned);
    digest.Add(row.non_empty_caches);
    digest.Add(row.files_seen);
    digest.Add(row.new_files);
    digest.Add(row.total_files);
  }
  for (const int day : SampleDays()) {
    digest.Add(Ranked(day));
    digest.Add(Histogram(day));
  }
  for (const uint32_t f : {0u, 1u, 7u, 23u}) {
    digest.Add(Spread(FileId(f)));
  }
  std::vector<FileId> files;
  for (uint32_t f = 0; f < 60; f += 5) {
    files.push_back(FileId(f));
  }
  for (const auto& series : Ranks(files)) {
    digest.Add(series);
  }
  OverlapEvolutionOptions options;
  options.max_pairs_per_cohort = 200;
  options.seed = 11;
  for (const OverlapCohort& cohort : Evolution(options)) {
    digest.Add(cohort.initial_overlap);
    digest.Add(cohort.pair_count);
    digest.Add(cohort.pairs);
    digest.Add(cohort.mean_overlap);
  }
  std::vector<bool> even(trace().file_count(), false);
  for (size_t f = 0; f < even.size(); f += 2) {
    even[f] = true;
  }
  for (const ClusteringCurve& curve :
       {Curve(trace().first_day() + 1, 8), Curve(trace().first_day() + 1, 6, &even),
        Curve(trace().last_day() + 100, 4)}) {
    digest.Add(curve.pairs_at_least);
    digest.Add(curve.probability);
  }
  EXPECT_EQ(digest.value(), kGoldenDigest)
      << "digest 0x" << std::hex << digest.value();
}

// --- The search simulator on day views --------------------------------------

TEST_F(DaySweepData, SearchSimulationStoreOverloadMatches) {
  // The store-level core must reproduce the StaticCaches entry point when
  // fed the layout-identical CacheStore.
  const StaticCaches caches = BuildUnionCaches(trace());
  SearchSimConfig config;
  config.list_size = 10;
  config.seed = 5;
  config.two_hop = true;
  const SearchSimResult expect = RunSearchSimulation(caches, config);
  const SearchSimResult got =
      RunSearchSimulation(CacheStore::FromStaticCaches(caches), config);
  EXPECT_EQ(got.seeds, expect.seeds);
  EXPECT_EQ(got.requests, expect.requests);
  EXPECT_EQ(got.one_hop_hits, expect.one_hop_hits);
  EXPECT_EQ(got.two_hop_hits, expect.two_hop_hits);
  EXPECT_EQ(got.fallbacks, expect.fallbacks);
  EXPECT_EQ(got.messages, expect.messages);
  EXPECT_EQ(got.two_hop_probes, expect.two_hop_probes);
  EXPECT_EQ(got.load, expect.load);
  EXPECT_EQ(got.requests_by_popularity, expect.requests_by_popularity);
  EXPECT_EQ(got.hits_by_popularity, expect.hits_by_popularity);
}

TEST_P(DaySweepTest, SearchSimulationRunsOnADayView) {
  // Every source's day view feeds the simulator exactly like the
  // StaticCaches path on that day: same observed peers, same store.
  const int day = trace().last_day();
  SearchSimConfig config;
  config.list_size = 8;
  config.seed = 3;
  const SearchSimResult expect =
      RunSearchSimulation(CacheStore::FromStaticCaches(BuildDayCaches(trace(), day)),
                          config);
  const std::optional<DayCaches> view = View(day);
  ASSERT_TRUE(view.has_value());
  std::vector<uint32_t> observed;
  for (const auto& [peer, files] : oracle::CachesOn(trace(), day)) {
    observed.push_back(peer);
  }
  EXPECT_EQ(view->peers, observed);
  const SearchSimResult got = RunSearchSimulation(view->store, config);
  EXPECT_EQ(got.requests, expect.requests);
  EXPECT_EQ(got.one_hop_hits, expect.one_hop_hits);
  EXPECT_EQ(got.messages, expect.messages);
  EXPECT_EQ(got.load, expect.load);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DaySweepTest,
    ::testing::Values(GridParam{SourceKind::kInRam, 1}, GridParam{SourceKind::kInRam, 2},
                      GridParam{SourceKind::kInRam, 8}, GridParam{SourceKind::kFlatV2, 1},
                      GridParam{SourceKind::kFlatV2, 2}, GridParam{SourceKind::kFlatV2, 8},
                      GridParam{SourceKind::kBlockedV2, 1},
                      GridParam{SourceKind::kBlockedV2, 2},
                      GridParam{SourceKind::kBlockedV2, 8}),
    [](const ::testing::TestParamInfo<GridParam>& info) { return GridName(info.param); });

}  // namespace
}  // namespace edk
