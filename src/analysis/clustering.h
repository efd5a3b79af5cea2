// Semantic clustering correlation (paper §4.2.1, Figs. 13-14).
//
// The clustering metric: for peer pairs having at least k files in common,
// the probability that they share at least one more. The paper computes it
// on one day's caches, for all files and for restricted file classes (audio
// files in a popularity band; files of exact popularity 3 or 5), and
// compares against the randomised trace to separate genuine interest-based
// clustering from the effect of popular files and generous peers.

#ifndef SRC_ANALYSIS_CLUSTERING_H_
#define SRC_ANALYSIS_CLUSTERING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/trace/cache_store.h"
#include "src/trace/trace.h"

namespace edk {

struct ClusteringCurve {
  // pairs_at_least[k] = number of peer pairs with >= k common files
  // (index 0 unused; k ranges 1..max_k+1).
  std::vector<uint64_t> pairs_at_least;
  // probability[k] = P(>= k+1 common | >= k common), for k in 1..max_k.
  std::vector<double> probability;

  // Convenience: probability at k, 0 when no pair reached k.
  double ProbabilityAt(size_t k) const;
};

// Computes the curve over all files, or over the subset selected by
// `file_mask` (mask size must equal the file-id space; overlaps count only
// masked files).
ClusteringCurve ComputeClusteringCurve(const StaticCaches& caches, size_t max_k,
                                       const std::vector<bool>* file_mask = nullptr);

// Store-level kernel: takes an already-built (and, if needed,
// already-masked) CacheStore, e.g. a day view from a day source
// (src/trace/day_source.h).
ClusteringCurve ComputeClusteringCurve(const CacheStore& store, size_t max_k);

// The curve on one day's caches: equal to
// ComputeClusteringCurve(BuildDayCaches(trace, day), max_k, file_mask).
ClusteringCurve ClusteringCurveOnDay(const Trace& trace, int day, size_t max_k,
                                     const std::vector<bool>* file_mask = nullptr);

// Mask helpers for the paper's file classes.
// Files of the given category whose union-trace popularity lies in
// [min_sources, max_sources].
std::vector<bool> MaskCategoryPopularity(const Trace& trace, FileCategory category,
                                         uint32_t min_sources, uint32_t max_sources);
// Files with exactly `sources` sources in the given caches.
std::vector<bool> MaskExactPopularity(const StaticCaches& caches, size_t file_count,
                                      uint32_t sources);

}  // namespace edk

#endif  // SRC_ANALYSIS_CLUSTERING_H_
