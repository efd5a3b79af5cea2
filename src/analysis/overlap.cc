#include "src/analysis/overlap.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "src/analysis/streaming.h"
#include "src/exec/parallel.h"
#include "src/obs/metrics.h"
#include "src/trace/cache_store.h"
#include "src/trace/day_source.h"

namespace edk {

namespace {

// Enumerates all peer pairs with >= 1 common file in `store` and calls
// visit(p, q, overlap) for each (p < q), serially. Counting runs on the
// dense CSR counter; the per-anchor visit order, however, is pinned to the
// historical implementation, which kept one unordered_map across anchors
// (cleared per anchor) and iterated it. Downstream reservoir sampling
// consumes rng draws in visit order, so changing the order would silently
// change which pairs the sampler keeps. The touched-list's first-encounter
// order equals the legacy map's key-insertion order, so replaying it into
// the same kind of reused map reproduces the legacy iteration order — and
// with it bit-identical sampled cohorts — at one hash insert per pair
// instead of one hash lookup per shared-file incidence.
template <typename Visitor>
void ForEachOverlappingPair(const CacheStore& store, Visitor visit) {
  OverlapCounter counter(store.peer_count());
  const size_t peers = store.peer_count();
  std::unordered_map<uint32_t, uint32_t> replay;
  for (uint32_t p = 0; p < peers; ++p) {
    replay.clear();
    counter.ForAnchor(store, p,
                      [&](uint32_t q, uint32_t overlap) { replay.emplace(q, overlap); });
    for (const auto& [q, overlap] : replay) {
      visit(p, q, overlap);
    }
  }
}

}  // namespace

std::vector<std::pair<uint32_t, uint64_t>> OverlapHistogramFromStore(
    const CacheStore& store) {
  // No pairwise overlap can exceed the largest single cache, so per-block
  // histograms are dense arrays; the merge is a pure integer sum and the
  // result is identical for any thread count.
  const size_t bound = store.MaxCacheSize() + 1;
  constexpr size_t kPeersPerBlock = 256;
  const size_t peers = store.peer_count();
  const size_t blocks = (peers + kPeersPerBlock - 1) / kPeersPerBlock;
  std::vector<std::vector<uint64_t>> block_histograms(blocks);
  ParallelFor(0, blocks, [&](size_t block) {
    auto& histogram = block_histograms[block];
    histogram.assign(bound, 0);
    OverlapCounter counter(peers);
    const uint32_t first = static_cast<uint32_t>(block * kPeersPerBlock);
    const uint32_t last =
        static_cast<uint32_t>(std::min<size_t>(peers, (block + 1) * kPeersPerBlock));
    for (uint32_t p = first; p < last; ++p) {
      counter.ForAnchor(store, p,
                        [&](uint32_t, uint32_t overlap) { ++histogram[overlap]; });
    }
  });

  std::vector<uint64_t> merged(bound, 0);
  for (const auto& histogram : block_histograms) {
    for (size_t overlap = 0; overlap < bound; ++overlap) {
      merged[overlap] += histogram[overlap];
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> result;
  for (size_t overlap = 1; overlap < bound; ++overlap) {
    if (merged[overlap] > 0) {
      result.emplace_back(static_cast<uint32_t>(overlap), merged[overlap]);
    }
  }
  return result;
}

std::vector<OverlapCohort> SelectOverlapCohorts(
    const CacheStore& first_day_store, const OverlapEvolutionOptions& options) {
  obs::PhaseTimer enumerate_timer("analysis.overlap.evolution.enumerate");
  std::vector<OverlapCohort> cohorts;
  cohorts.reserve(options.cohort_overlaps.size());
  std::unordered_map<uint32_t, size_t> cohort_index;
  for (uint32_t value : options.cohort_overlaps) {
    cohort_index[value] = cohorts.size();
    OverlapCohort cohort;
    cohort.initial_overlap = value;
    cohorts.push_back(std::move(cohort));
  }

  Rng rng(options.seed);
  // Serial enumeration: the reservoir sampler below consumes rng draws, so
  // the pair visit order must not depend on scheduling.
  ForEachOverlappingPair(
      first_day_store, [&](uint32_t p, uint32_t q, uint32_t overlap) {
        const auto it = cohort_index.find(overlap);
        if (it == cohort_index.end()) {
          return;
        }
        OverlapCohort& cohort = cohorts[it->second];
        ++cohort.pair_count;
        if (cohort.pairs.size() < options.max_pairs_per_cohort) {
          cohort.pairs.emplace_back(p, q);
        } else {
          // Reservoir sampling keeps the subsample uniform.
          const uint64_t slot = rng.NextBelow(cohort.pair_count);
          if (slot < options.max_pairs_per_cohort) {
            cohort.pairs[slot] = {p, q};
          }
        }
      });
  return cohorts;
}

namespace {

template <typename Source>
std::vector<std::pair<uint32_t, uint64_t>> OverlapHistogramOver(
    const Source& source, int day) {
  const std::optional<DayCaches> view = source.ReadDay(day);
  if (!view.has_value()) {
    return {};  // Nobody observed (or an undecodable day): no pairs.
  }
  return OverlapHistogramFromStore(view->store);
}

template <typename Source>
std::vector<OverlapCohort> OverlapEvolutionOver(
    const Source& source, const OverlapEvolutionOptions& options) {
  const int first_day = source.first_day();
  std::vector<OverlapCohort> cohorts;
  if (const std::optional<DayCaches> view = source.ReadDay(first_day);
      view.has_value()) {
    cohorts = SelectOverlapCohorts(view->store, options);
  } else {
    cohorts = SelectOverlapCohorts(CacheStore(), options);
  }

  const size_t days = source.last_day() < first_day
                          ? 0
                          : static_cast<size_t>(source.last_day() - first_day + 1);
  for (auto& cohort : cohorts) {
    cohort.mean_overlap.assign(days, 0.0);
  }
  // The sampled pairs are fixed from here on; the daily sweep only needs
  // their per-day overlap SUM per cohort, and every addend is an integer
  // below 2^32 summed fewer than 2^21 times, so the double accumulator is
  // exact and the pair visit order is free to change. Grouping each
  // cohort's pairs by anchor lets one stamped pass over the anchor's cache
  // serve all its partners: overlap becomes a linear scan of the partner's
  // cache against the stamp array instead of a two-pointer merge.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> by_anchor(cohorts.size());
  for (size_t c = 0; c < cohorts.size(); ++c) {
    by_anchor[c] = cohorts[c].pairs;
    std::sort(by_anchor[c].begin(), by_anchor[c].end());
  }
  // Days are independent: each task reads one day view and writes the
  // per-day slot of every cohort, so results match the serial loop exactly.
  // Peak memory is one day view per worker.
  ParallelFor(0, days, [&](size_t d) {
    const std::optional<DayCaches> view =
        source.ReadDay(first_day + static_cast<int>(d));
    if (!view.has_value()) {
      return;  // Nobody observed: every cohort mean stays 0.0.
    }
    // Snapshot presence, not row emptiness: a peer observed with an empty
    // cache still counts into its cohort's denominator.
    std::vector<uint8_t> observed(source.peer_count(), 0);
    for (const uint32_t p : view->peers) {
      observed[p] = 1;
    }
    std::vector<uint32_t> file_stamp(source.file_count(), 0);
    uint32_t stamp = 0;
    for (size_t c = 0; c < cohorts.size(); ++c) {
      const auto& pairs = by_anchor[c];
      if (pairs.empty()) {
        continue;
      }
      double sum = 0;
      uint64_t counted = 0;
      for (size_t i = 0; i < pairs.size();) {
        const uint32_t p = pairs[i].first;
        const bool p_observed = observed[p] != 0;
        if (p_observed) {
          ++stamp;
          for (const uint32_t f : view->store.PeerFiles(p)) {
            file_stamp[f] = stamp;
          }
        }
        for (; i < pairs.size() && pairs[i].first == p; ++i) {
          if (!p_observed || observed[pairs[i].second] == 0) {
            continue;
          }
          uint64_t overlap = 0;
          for (const uint32_t f : view->store.PeerFiles(pairs[i].second)) {
            overlap += file_stamp[f] == stamp ? 1 : 0;
          }
          sum += static_cast<double>(overlap);
          ++counted;
        }
      }
      cohorts[c].mean_overlap[d] = counted == 0 ? 0.0 : sum / static_cast<double>(counted);
    }
  });
  return cohorts;
}

}  // namespace

std::vector<std::pair<uint32_t, uint64_t>> OverlapHistogramOnDay(const Trace& trace,
                                                                 int day) {
  obs::PhaseTimer timer("analysis.overlap.histogram_day");
  return OverlapHistogramOver(TraceDaySource(trace), day);
}

std::vector<std::pair<uint32_t, uint64_t>> StreamingOverlapHistogramOnDay(
    const stream::TraceReader& reader, int day) {
  obs::PhaseTimer timer("analysis.streaming.overlap_histogram_day");
  return OverlapHistogramOver(stream::ReaderDaySource(reader), day);
}

std::vector<OverlapCohort> ComputeOverlapEvolution(const Trace& trace,
                                                   const OverlapEvolutionOptions& options) {
  obs::PhaseTimer timer("analysis.overlap.evolution");
  return OverlapEvolutionOver(TraceDaySource(trace), options);
}

std::vector<OverlapCohort> StreamingOverlapEvolution(
    const stream::TraceReader& reader, const OverlapEvolutionOptions& options) {
  obs::PhaseTimer timer("analysis.streaming.overlap_evolution");
  return OverlapEvolutionOver(stream::ReaderDaySource(reader), options);
}

}  // namespace edk
