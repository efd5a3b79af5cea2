// Microbenchmarks of the workbench's hot paths (google-benchmark):
// PRNG, Zipf sampling, MD4 hashing, overlap counting, neighbour-list
// operations, cache randomisation and the event queue — plus the CSR
// overlap kernel suite. With --json=FILE the binary instead times each
// overlap kernel against a verbatim copy of its pre-CSR hash-map
// implementation on the same synthetic trace, checks the outputs match,
// and writes the wall-ns comparison as JSON (the BENCH_overlap.json
// trajectory; format documented in EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "src/analysis/clustering.h"
#include "src/analysis/overlap.h"
#include "src/common/md4.h"
#include "src/common/random_access_set.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/net/event_queue.h"
#include "src/exec/parallel.h"
#include "src/obs/flags.h"
#include "src/semantic/neighbour_list.h"
#include "src/semantic/search_sim.h"
#include "src/trace/cache_store.h"
#include "src/trace/randomize.h"
#include "src/trace/trace.h"

namespace edk {
namespace {

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBelow(1'000'000));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(2);
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(10'000)->Arg(1'000'000);

void BM_Md4Hash(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md4::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Md4Hash)->Arg(64)->Arg(4096)->Arg(65536);

void BM_OverlapSize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<FileId> a;
  std::vector<FileId> b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(FileId(static_cast<uint32_t>(2 * i)));
    b.push_back(FileId(static_cast<uint32_t>(3 * i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlapSize(a, b));
  }
}
BENCHMARK(BM_OverlapSize)->Arg(100)->Arg(1000);

void BM_RandomAccessSetChurn(benchmark::State& state) {
  RandomAccessSet<uint32_t> set;
  Rng rng(3);
  for (uint32_t i = 0; i < 1000; ++i) {
    set.Insert(i);
  }
  for (auto _ : state) {
    const uint32_t victim = set.RandomElement(rng);
    set.Erase(victim);
    set.Insert(victim + 1000 + static_cast<uint32_t>(rng.NextBelow(1000)));
  }
}
BENCHMARK(BM_RandomAccessSetChurn);

void BM_LruRecordUpload(benchmark::State& state) {
  auto list = MakeNeighbourList(StrategyKind::kLru, static_cast<size_t>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    list->RecordUpload(static_cast<uint32_t>(rng.NextBelow(500)), 1.0);
  }
}
BENCHMARK(BM_LruRecordUpload)->Arg(20)->Arg(200);

void BM_HistoryRecordUpload(benchmark::State& state) {
  auto list = MakeNeighbourList(StrategyKind::kHistory, static_cast<size_t>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    list->RecordUpload(static_cast<uint32_t>(rng.NextBelow(500)), 1.0);
  }
}
BENCHMARK(BM_HistoryRecordUpload)->Arg(20)->Arg(200);

void BM_HistoryCollect(benchmark::State& state) {
  auto list = MakeNeighbourList(StrategyKind::kHistory, 20);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    list->RecordUpload(static_cast<uint32_t>(rng.NextBelow(200)), 1.0);
  }
  std::vector<uint32_t> out;
  for (auto _ : state) {
    out.clear();
    list->Collect(static_cast<size_t>(state.range(0)), out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_HistoryCollect)->Arg(5)->Arg(20);

void BM_RandomizeSwaps(benchmark::State& state) {
  // 500 peers x 40 files.
  StaticCaches caches;
  Rng setup(6);
  caches.caches.resize(500);
  for (auto& cache : caches.caches) {
    RandomAccessSet<uint32_t> unique;
    while (unique.size() < 40) {
      unique.Insert(static_cast<uint32_t>(setup.NextBelow(20'000)));
    }
    for (uint32_t f : unique) {
      cache.push_back(FileId(f));
    }
    std::sort(cache.begin(), cache.end());
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomizeCaches(caches, 10'000, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_RandomizeSwaps);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue queue;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.Schedule(static_cast<double>(i % 17), [&sink] { ++sink; });
    }
    queue.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

// ---------------------------------------------------------------------------
// Overlap kernel suite: CSR production code vs the pre-CSR implementations.
// The legacy namespace holds verbatim copies of the hash-map kernels this
// repository shipped before the CacheStore rewrite, kept here solely as the
// measurement baseline for the BENCH_overlap.json trajectory.
// ---------------------------------------------------------------------------

namespace legacy {

template <typename Visitor>
void ForEachOverlappingPair(const Trace& trace, int day, Visitor visit) {
  const StaticCaches caches = BuildDayCaches(trace, day);
  std::unordered_map<uint32_t, std::vector<uint32_t>> holders;
  for (uint32_t p = 0; p < caches.caches.size(); ++p) {
    for (FileId f : caches.caches[p]) {
      holders[f.value].push_back(p);
    }
  }
  std::unordered_map<uint32_t, uint32_t> local;
  for (uint32_t p = 0; p < caches.caches.size(); ++p) {
    local.clear();
    for (FileId f : caches.caches[p]) {
      for (uint32_t q : holders[f.value]) {
        if (q > p) {
          ++local[q];
        }
      }
    }
    for (const auto& [q, overlap] : local) {
      visit(p, q, overlap);
    }
  }
}

std::vector<std::pair<uint32_t, uint64_t>> OverlapHistogramOnDay(const Trace& trace,
                                                                 int day) {
  std::map<uint32_t, uint64_t> histogram;
  ForEachOverlappingPair(trace, day, [&histogram](uint32_t, uint32_t, uint32_t overlap) {
    ++histogram[overlap];
  });
  return {histogram.begin(), histogram.end()};
}

std::vector<OverlapCohort> ComputeOverlapEvolution(const Trace& trace,
                                                   const OverlapEvolutionOptions& options) {
  std::vector<OverlapCohort> cohorts;
  cohorts.reserve(options.cohort_overlaps.size());
  std::unordered_map<uint32_t, size_t> cohort_index;
  for (uint32_t value : options.cohort_overlaps) {
    cohort_index[value] = cohorts.size();
    OverlapCohort cohort;
    cohort.initial_overlap = value;
    cohorts.push_back(std::move(cohort));
  }

  const int first_day = trace.first_day();
  Rng rng(options.seed);
  ForEachOverlappingPair(
      trace, first_day,
      [&](uint32_t p, uint32_t q, uint32_t overlap) {
        const auto it = cohort_index.find(overlap);
        if (it == cohort_index.end()) {
          return;
        }
        OverlapCohort& cohort = cohorts[it->second];
        ++cohort.pair_count;
        if (cohort.pairs.size() < options.max_pairs_per_cohort) {
          cohort.pairs.emplace_back(p, q);
        } else {
          const uint64_t slot = rng.NextBelow(cohort.pair_count);
          if (slot < options.max_pairs_per_cohort) {
            cohort.pairs[slot] = {p, q};
          }
        }
      });

  const size_t days = static_cast<size_t>(trace.last_day() - trace.first_day() + 1);
  for (auto& cohort : cohorts) {
    cohort.mean_overlap.assign(days, 0.0);
  }
  ParallelFor(0, days, [&](size_t d) {
    const int day = first_day + static_cast<int>(d);
    for (auto& cohort : cohorts) {
      if (cohort.pairs.empty()) {
        continue;
      }
      double sum = 0;
      uint64_t counted = 0;
      for (const auto& [p, q] : cohort.pairs) {
        const CacheSnapshot* a = trace.timeline(PeerId(p)).SnapshotOn(day);
        const CacheSnapshot* b = trace.timeline(PeerId(q)).SnapshotOn(day);
        if (a == nullptr || b == nullptr) {
          continue;
        }
        sum += static_cast<double>(OverlapSize(a->files, b->files));
        ++counted;
      }
      cohort.mean_overlap[d] = counted == 0 ? 0.0 : sum / static_cast<double>(counted);
    }
  });
  return cohorts;
}

ClusteringCurve ComputeClusteringCurve(const StaticCaches& caches, size_t max_k,
                                       const std::vector<bool>* file_mask) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> holders;
  for (uint32_t p = 0; p < caches.caches.size(); ++p) {
    for (FileId f : caches.caches[p]) {
      if (file_mask != nullptr && !(*file_mask)[f.value]) {
        continue;
      }
      holders[f.value].push_back(p);
    }
  }

  std::unordered_map<uint64_t, uint64_t> overlap_histogram;
  {
    constexpr size_t kPeersPerBlock = 256;
    const size_t peer_count = caches.caches.size();
    const size_t blocks = (peer_count + kPeersPerBlock - 1) / kPeersPerBlock;
    std::vector<std::unordered_map<uint64_t, uint64_t>> block_histograms(blocks);
    ParallelFor(0, blocks, [&](size_t block) {
      auto& histogram = block_histograms[block];
      std::unordered_map<uint32_t, uint32_t> local;
      const uint32_t first = static_cast<uint32_t>(block * kPeersPerBlock);
      const uint32_t last =
          static_cast<uint32_t>(std::min(peer_count, (block + 1) * kPeersPerBlock));
      for (uint32_t p = first; p < last; ++p) {
        local.clear();
        for (FileId f : caches.caches[p]) {
          if (file_mask != nullptr && !(*file_mask)[f.value]) {
            continue;
          }
          const auto it = holders.find(f.value);
          if (it == holders.end()) {
            continue;
          }
          for (uint32_t q : it->second) {
            if (q > p) {
              ++local[q];
            }
          }
        }
        for (const auto& [q, count] : local) {
          ++histogram[count];
        }
      }
    });
    for (const auto& histogram : block_histograms) {
      for (const auto& [overlap, pairs] : histogram) {
        overlap_histogram[overlap] += pairs;
      }
    }
  }

  ClusteringCurve curve;
  curve.pairs_at_least.assign(max_k + 2, 0);
  for (const auto& [overlap, pairs] : overlap_histogram) {
    const size_t limit = std::min<uint64_t>(overlap, max_k + 1);
    for (size_t k = 1; k <= limit; ++k) {
      curve.pairs_at_least[k] += pairs;
    }
  }
  curve.probability.assign(max_k + 1, 0.0);
  for (size_t k = 1; k <= max_k; ++k) {
    if (curve.pairs_at_least[k] > 0) {
      curve.probability[k] = static_cast<double>(curve.pairs_at_least[k + 1]) /
                             static_cast<double>(curve.pairs_at_least[k]);
    }
  }
  return curve;
}

RandomizeResult RandomizeCaches(const StaticCaches& caches, uint64_t swaps, Rng& rng) {
  const size_t peer_count = caches.caches.size();
  std::vector<RandomAccessSet<uint32_t>> sets(peer_count);
  std::vector<uint32_t> replica_owner;
  replica_owner.reserve(caches.TotalReplicas());
  for (size_t p = 0; p < peer_count; ++p) {
    sets[p].Reserve(caches.caches[p].size());
    for (FileId f : caches.caches[p]) {
      sets[p].Insert(f.value);
      replica_owner.push_back(static_cast<uint32_t>(p));
    }
  }
  RandomizeResult result;
  if (replica_owner.size() < 2) {
    result.caches = caches;
    return result;
  }
  for (uint64_t iter = 0; iter < swaps; ++iter) {
    ++result.attempted_swaps;
    const uint32_t u = replica_owner[rng.NextBelow(replica_owner.size())];
    const uint32_t v = replica_owner[rng.NextBelow(replica_owner.size())];
    if (u == v) {
      continue;
    }
    const uint32_t f = sets[u].RandomElement(rng);
    const uint32_t f_prime = sets[v].RandomElement(rng);
    if (f == f_prime || sets[u].Contains(f_prime) || sets[v].Contains(f)) {
      continue;
    }
    sets[u].Erase(f);
    sets[u].Insert(f_prime);
    sets[v].Erase(f_prime);
    sets[v].Insert(f);
    ++result.successful_swaps;
  }
  result.caches.caches.resize(peer_count);
  for (size_t p = 0; p < peer_count; ++p) {
    auto& out = result.caches.caches[p];
    out.reserve(sets[p].size());
    for (uint32_t raw : sets[p]) {
      out.push_back(FileId(raw));
    }
    std::sort(out.begin(), out.end());
  }
  return result;
}

}  // namespace legacy

// Synthetic multi-day trace for the kernel suite: Zipf-popular files,
// assorted cache sizes, peers skipping days at random. Deterministic.
Trace MakeKernelTrace(size_t peers, size_t files, int days, size_t mean_cache) {
  Rng rng(42);
  ZipfSampler zipf(files, 0.9);
  Trace trace;
  for (size_t f = 0; f < files; ++f) {
    trace.AddFile(FileMeta{});
  }
  std::vector<uint32_t> cache;
  for (size_t p = 0; p < peers; ++p) {
    const PeerId id = trace.AddPeer(PeerInfo{});
    for (int day = 1; day <= days; ++day) {
      if (rng.NextBelow(4) == 0) {
        continue;  // Offline that day.
      }
      const size_t size = 1 + rng.NextBelow(2 * mean_cache);
      cache.clear();
      while (cache.size() < size) {
        const uint32_t f = static_cast<uint32_t>(zipf.Sample(rng));
        if (std::find(cache.begin(), cache.end(), f) == cache.end()) {
          cache.push_back(f);
        }
      }
      std::vector<FileId> snapshot;
      snapshot.reserve(cache.size());
      for (uint32_t f : cache) {
        snapshot.push_back(FileId(f));
      }
      trace.AddSnapshot(id, day, snapshot);
    }
  }
  return trace;
}

void BM_OverlapHistogramLegacy(benchmark::State& state) {
  const Trace trace =
      MakeKernelTrace(static_cast<size_t>(state.range(0)), 20'000, 1, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::OverlapHistogramOnDay(trace, 1));
  }
}
BENCHMARK(BM_OverlapHistogramLegacy)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_OverlapHistogramCsr(benchmark::State& state) {
  const Trace trace =
      MakeKernelTrace(static_cast<size_t>(state.range(0)), 20'000, 1, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OverlapHistogramOnDay(trace, 1));
  }
}
BENCHMARK(BM_OverlapHistogramCsr)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ClusteringCurveLegacy(benchmark::State& state) {
  const Trace trace =
      MakeKernelTrace(static_cast<size_t>(state.range(0)), 20'000, 1, 25);
  const StaticCaches caches = BuildDayCaches(trace, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy::ComputeClusteringCurve(caches, 64, nullptr));
  }
}
BENCHMARK(BM_ClusteringCurveLegacy)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ClusteringCurveCsr(benchmark::State& state) {
  const Trace trace =
      MakeKernelTrace(static_cast<size_t>(state.range(0)), 20'000, 1, 25);
  const StaticCaches caches = BuildDayCaches(trace, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeClusteringCurve(caches, 64, nullptr));
  }
}
BENCHMARK(BM_ClusteringCurveCsr)->Arg(2000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json=FILE mode: one timed head-to-head run per kernel, plus an output
// equality check (the rewrite claims bit-identical results — verify it on
// this trace before reporting any speedup).
// ---------------------------------------------------------------------------

uint64_t WallNs(const std::function<void()>& fn) {
  // Best of three: on a shared single-core builder a single run is noisy.
  uint64_t best = ~0ull;
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
    best = std::min(best, ns);
  }
  return best;
}

int RunJsonSuite(const std::string& path) {
  constexpr size_t kPeers = 6000;
  constexpr size_t kFiles = 40'000;
  constexpr int kDays = 8;
  constexpr size_t kMeanCache = 25;
  const Trace trace = MakeKernelTrace(kPeers, kFiles, kDays, kMeanCache);
  const StaticCaches caches = BuildDayCaches(trace, 1);
  const size_t replicas = caches.TotalReplicas();
  size_t max_cache = 0;
  for (const auto& cache : caches.caches) {
    max_cache = std::max(max_cache, cache.size());
  }

  struct KernelRow {
    std::string name;
    uint64_t legacy_ns = 0;  // 0 = no legacy twin.
    uint64_t csr_ns = 0;
    bool matched = true;
  };
  std::vector<KernelRow> rows;

  {
    KernelRow row{.name = "overlap_histogram"};
    std::vector<std::pair<uint32_t, uint64_t>> want;
    std::vector<std::pair<uint32_t, uint64_t>> got;
    row.legacy_ns = WallNs([&] { want = legacy::OverlapHistogramOnDay(trace, 1); });
    row.csr_ns = WallNs([&] { got = OverlapHistogramOnDay(trace, 1); });
    row.matched = want == got;
    rows.push_back(row);
  }
  {
    KernelRow row{.name = "overlap_evolution"};
    OverlapEvolutionOptions options;
    options.cohort_overlaps = {1, 2, 3, 4, 5};
    options.max_pairs_per_cohort = 20'000;
    std::vector<OverlapCohort> want;
    std::vector<OverlapCohort> got;
    row.legacy_ns = WallNs([&] { want = legacy::ComputeOverlapEvolution(trace, options); });
    row.csr_ns = WallNs([&] { got = ComputeOverlapEvolution(trace, options); });
    row.matched = want.size() == got.size();
    for (size_t c = 0; row.matched && c < want.size(); ++c) {
      row.matched = want[c].pair_count == got[c].pair_count &&
                    want[c].pairs == got[c].pairs &&
                    want[c].mean_overlap == got[c].mean_overlap;
    }
    rows.push_back(row);
  }
  {
    KernelRow row{.name = "clustering_curve"};
    ClusteringCurve want;
    ClusteringCurve got;
    row.legacy_ns = WallNs([&] { want = legacy::ComputeClusteringCurve(caches, 64, nullptr); });
    row.csr_ns = WallNs([&] { got = ComputeClusteringCurve(caches, 64, nullptr); });
    row.matched = want.pairs_at_least == got.pairs_at_least &&
                  want.probability == got.probability;
    rows.push_back(row);
  }
  {
    KernelRow row{.name = "clustering_curve_masked"};
    Rng mask_rng(9);
    std::vector<bool> mask(kFiles);
    for (size_t f = 0; f < kFiles; ++f) {
      mask[f] = mask_rng.NextBelow(4) != 0;
    }
    ClusteringCurve want;
    ClusteringCurve got;
    row.legacy_ns = WallNs([&] { want = legacy::ComputeClusteringCurve(caches, 64, &mask); });
    row.csr_ns = WallNs([&] { got = ComputeClusteringCurve(caches, 64, &mask); });
    row.matched = want.pairs_at_least == got.pairs_at_least &&
                  want.probability == got.probability;
    rows.push_back(row);
  }
  {
    KernelRow row{.name = "randomize_swaps"};
    const uint64_t swaps = replicas;  // ~one attempted swap per replica.
    RandomizeResult want;
    RandomizeResult got;
    row.legacy_ns = WallNs([&] {
      Rng rng(7);
      want = legacy::RandomizeCaches(caches, swaps, rng);
    });
    row.csr_ns = WallNs([&] {
      Rng rng(7);
      got = RandomizeCaches(caches, swaps, rng);
    });
    row.matched = want.successful_swaps == got.successful_swaps &&
                  want.caches.caches == got.caches.caches;
    rows.push_back(row);
  }
  {
    // No legacy twin kept for the search simulator (its rewrite is pinned
    // byte-identical by the figure benches); recorded for the trajectory.
    KernelRow row{.name = "search_sim_lru"};
    SearchSimConfig config;
    config.strategy = StrategyKind::kLru;
    row.csr_ns = WallNs([&] {
      benchmark::DoNotOptimize(RunSearchSimulation(caches, config));
    });
    rows.push_back(row);
  }

  bool all_matched = true;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"edk.bench_micro.overlap.v1\",\n";
  out << "  \"trace\": {\"peers\": " << kPeers << ", \"files\": " << kFiles
      << ", \"days\": " << kDays << ", \"replicas\": " << replicas
      << ", \"max_cache\": " << max_cache << "},\n";
  out << "  \"kernels\": {\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    all_matched = all_matched && row.matched;
    out << "    \"" << row.name << "\": {";
    if (row.legacy_ns > 0) {
      out << "\"legacy_wall_ns\": " << row.legacy_ns << ", ";
    }
    out << "\"csr_wall_ns\": " << row.csr_ns;
    if (row.legacy_ns > 0 && row.csr_ns > 0) {
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f",
                    static_cast<double>(row.legacy_ns) / static_cast<double>(row.csr_ns));
      out << ", \"speedup\": " << speedup;
      out << ", \"outputs_match\": " << (row.matched ? "true" : "false");
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  out.close();

  for (const KernelRow& row : rows) {
    if (row.legacy_ns > 0) {
      std::printf("%-24s legacy %12llu ns   csr %12llu ns   %.2fx%s\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.legacy_ns),
                  static_cast<unsigned long long>(row.csr_ns),
                  static_cast<double>(row.legacy_ns) / static_cast<double>(row.csr_ns),
                  row.matched ? "" : "   OUTPUT MISMATCH");
    } else {
      std::printf("%-24s %38s csr %12llu ns\n", row.name.c_str(), "",
                  static_cast<unsigned long long>(row.csr_ns));
    }
  }
  if (!all_matched) {
    std::fprintf(stderr, "bench_micro: CSR kernel output diverged from legacy\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace edk

int main(int argc, char** argv) {
  // --json=FILE switches to the overlap kernel comparison suite, and the
  // shared observability flags (--metrics-out / --trace-out /
  // --trace-sample) are consumed here; all other arguments belong to
  // google-benchmark.
  std::string json_path;
  edk::obs::ObsFlagValues obs_flags;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (edk::obs::ConsumeObsFlag(argv[i], &obs_flags)) {
      // Consumed.
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  edk::obs::ApplyObsFlags(obs_flags);
  if (!json_path.empty()) {
    return edk::RunJsonSuite(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
