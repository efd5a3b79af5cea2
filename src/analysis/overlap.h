// Overlap dynamics between peer pairs (paper §4.2.2, Figs. 15-17).
//
// Pairs of peers are grouped into cohorts by the number of files they have
// in common on the first day of the (extrapolated) trace; the mean overlap
// of each cohort is then tracked day by day. The paper's observation: small
// initial overlaps decay smoothly, large initial overlaps show long
// plateaux — i.e. interest-based proximity is stable over weeks even though
// the underlying files churn.

#ifndef SRC_ANALYSIS_OVERLAP_H_
#define SRC_ANALYSIS_OVERLAP_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/cache_store.h"
#include "src/trace/trace.h"

namespace edk {

struct OverlapCohort {
  uint32_t initial_overlap = 0;                // Exact common-file count on day 1.
  uint64_t pair_count = 0;                     // Pairs in the cohort (pre-sampling).
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // Tracked (possibly sampled).
  std::vector<double> mean_overlap;            // Per day of the trace.
};

struct OverlapEvolutionOptions {
  // Cohorts to build, by exact initial overlap.
  std::vector<uint32_t> cohort_overlaps = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  // Large cohorts are subsampled to this many pairs for the daily sweep.
  size_t max_pairs_per_cohort = 20'000;
  uint64_t seed = 1;
};

// `trace` should be the extrapolated trace (dense daily snapshots). The
// overlap on a day counts only pairs where both peers have a snapshot.
std::vector<OverlapCohort> ComputeOverlapEvolution(const Trace& trace,
                                                   const OverlapEvolutionOptions& options);

// All pair overlaps on one day, as (pair, overlap) histogram support:
// returns exact-overlap -> pair count. Used by tests and by cohort
// selection.
std::vector<std::pair<uint32_t, uint64_t>> OverlapHistogramOnDay(const Trace& trace,
                                                                 int day);

// Store-level kernels behind the entry points above. Both take a one-day
// CacheStore view, e.g. from a day source (src/trace/day_source.h).
std::vector<std::pair<uint32_t, uint64_t>> OverlapHistogramFromStore(
    const CacheStore& store);

// Day-one cohort selection (pair enumeration + reservoir sampling) of
// ComputeOverlapEvolution. The returned cohorts carry pair_count and the
// sampled pairs; mean_overlap is left empty for the daily sweep to fill.
std::vector<OverlapCohort> SelectOverlapCohorts(
    const CacheStore& first_day_store, const OverlapEvolutionOptions& options);

}  // namespace edk

#endif  // SRC_ANALYSIS_OVERLAP_H_
