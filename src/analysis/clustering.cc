#include "src/analysis/clustering.h"

#include <algorithm>
#include <optional>

#include "src/analysis/streaming.h"
#include "src/exec/parallel.h"
#include "src/obs/metrics.h"
#include "src/trace/cache_store.h"
#include "src/trace/day_source.h"

namespace edk {

double ClusteringCurve::ProbabilityAt(size_t k) const {
  if (k == 0 || k >= probability.size()) {
    return 0;
  }
  return probability[k];
}

ClusteringCurve ComputeClusteringCurve(const StaticCaches& caches, size_t max_k,
                                       const std::vector<bool>* file_mask) {
  // Flat CSR store; a mask is applied once as a projection so the counting
  // loops below carry no per-file branch.
  CacheStore store = CacheStore::FromStaticCaches(caches);
  if (file_mask != nullptr) {
    store = store.Masked(*file_mask);
  }
  return ComputeClusteringCurve(store, max_k);
}

ClusteringCurve ComputeClusteringCurve(const CacheStore& store, size_t max_k) {
  obs::PhaseTimer timer("analysis.clustering.curve");
  // Pair overlap distribution, capped at max_k + 1 (the curve never reads
  // beyond it). Memory stays bounded by processing one anchor peer at a
  // time. Anchor peers are partitioned into fixed-size blocks that fan out
  // over the thread pool; each block accumulates a private dense histogram
  // and the merge is a pure integer sum, so the result is identical for
  // any thread count.
  const size_t cap = max_k + 1;
  constexpr size_t kPeersPerBlock = 256;
  const size_t peer_count = store.peer_count();
  const size_t blocks = (peer_count + kPeersPerBlock - 1) / kPeersPerBlock;
  std::vector<std::vector<uint64_t>> block_histograms(blocks);
  ParallelFor(0, blocks, [&](size_t block) {
    auto& histogram = block_histograms[block];
    histogram.assign(cap + 1, 0);
    OverlapCounter counter(peer_count);
    const uint32_t first = static_cast<uint32_t>(block * kPeersPerBlock);
    const uint32_t last =
        static_cast<uint32_t>(std::min(peer_count, (block + 1) * kPeersPerBlock));
    for (uint32_t p = first; p < last; ++p) {
      counter.ForAnchor(store, p, [&](uint32_t, uint32_t overlap) {
        ++histogram[std::min<size_t>(overlap, cap)];
      });
    }
  });

  ClusteringCurve curve;
  curve.pairs_at_least.assign(max_k + 2, 0);
  for (const auto& histogram : block_histograms) {
    // Every pair with overlap c contributes to pairs_at_least[1..c]; the
    // suffix-sum below converts "exactly c (capped)" into ">= k".
    for (size_t capped = 1; capped <= cap; ++capped) {
      curve.pairs_at_least[capped] += histogram[capped];
    }
  }
  for (size_t k = max_k; k >= 1; --k) {
    curve.pairs_at_least[k] += curve.pairs_at_least[k + 1];
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

namespace {

template <typename Source>
ClusteringCurve ClusteringCurveOver(const Source& source, int day, size_t max_k,
                                    const std::vector<bool>* file_mask) {
  const std::optional<DayCaches> view = source.ReadDay(day);
  const CacheStore empty;
  const CacheStore& store = view.has_value() ? view->store : empty;
  if (file_mask != nullptr) {
    return ComputeClusteringCurve(store.Masked(*file_mask), max_k);
  }
  return ComputeClusteringCurve(store, max_k);
}

}  // namespace

ClusteringCurve ClusteringCurveOnDay(const Trace& trace, int day, size_t max_k,
                                     const std::vector<bool>* file_mask) {
  return ClusteringCurveOver(TraceDaySource(trace), day, max_k, file_mask);
}

ClusteringCurve StreamingClusteringCurveOnDay(const stream::TraceReader& reader,
                                              int day, size_t max_k,
                                              const std::vector<bool>* file_mask) {
  return ClusteringCurveOver(stream::ReaderDaySource(reader), day, max_k,
                             file_mask);
}

std::vector<bool> MaskCategoryPopularity(const Trace& trace, FileCategory category,
                                         uint32_t min_sources, uint32_t max_sources) {
  const auto counts = trace.SourceCounts();
  std::vector<bool> mask(trace.file_count(), false);
  for (size_t f = 0; f < mask.size(); ++f) {
    mask[f] = trace.file(FileId(static_cast<uint32_t>(f))).category == category &&
              counts[f] >= min_sources && counts[f] <= max_sources;
  }
  return mask;
}

std::vector<bool> MaskExactPopularity(const StaticCaches& caches, size_t file_count,
                                      uint32_t sources) {
  const auto counts = caches.SourceCounts(file_count);
  std::vector<bool> mask(file_count, false);
  for (size_t f = 0; f < file_count; ++f) {
    mask[f] = counts[f] == sources;
  }
  return mask;
}

}  // namespace edk
