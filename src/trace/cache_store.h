// Flat compressed-sparse-row (CSR) view of a set of peer caches, plus the
// transposed index (file -> holders), built once and shared by the pairwise
// overlap kernels in src/analysis and the semantic search simulator.
//
// Layout. All caches live in one flat `files` array; peer p's (sorted)
// cache is the slice [peer_offsets[p], peer_offsets[p+1]). The transpose
// stores, for every file f, the ascending list of peers holding it in one
// flat `holders` array sliced by `file_offsets`. Compared to the previous
// std::unordered_map<uint32_t, std::vector<uint32_t>> inverted indexes this
// removes per-file allocations and hashing from the hottest loops: a full
// pass over all (peer, file) incidences is a linear scan of two arrays.
//
// Counting idiom. Per-anchor pair counting uses OverlapCounter: a dense
// per-peer counter array plus an explicit touched list, reset by walking
// the touched entries rather than clearing the whole array. Because holder
// lists are ascending, the peers q > p relevant for pair deduplication form
// a suffix of each holder slice, located with one binary search instead of
// a per-element branch.
//
// Determinism. The store is a pure function of its input caches, and
// OverlapCounter visits candidates in first-encounter order, which depends
// only on the store. Parallel consumers merge per-block integer histograms
// (commutative sums), so results are bit-identical for any thread count.

#ifndef SRC_TRACE_CACHE_STORE_H_
#define SRC_TRACE_CACHE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/trace/trace.h"

namespace edk {

class CacheStore {
 public:
  CacheStore() = default;

  // Flattens `caches` (sorted per peer, as per the StaticCaches contract)
  // and builds the transpose. The file-id space is sized to the largest id
  // present (or `file_count_hint` if larger).
  static CacheStore FromStaticCaches(const StaticCaches& caches,
                                     size_t file_count_hint = 0);
  // Equivalent to FromStaticCaches(BuildDayCaches(trace, day)) without the
  // intermediate per-peer vector copies: TraceDaySource::ReadDay's store.
  static CacheStore FromTraceDay(const Trace& trace, int day);
  // Adopts an already-flattened CSR (sorted ascending within each peer
  // slice; `peer_offsets` has peer_count + 1 entries starting at 0) and
  // builds the transpose. The file-id space is sized to the largest id
  // present (or `file_count_hint` if larger) — the same sizing rule as the
  // other factories, so a stream::TraceReader day view is layout-identical
  // to FromTraceDay on the materialised trace.
  static CacheStore FromCsr(std::vector<uint32_t> files,
                            std::vector<size_t> peer_offsets,
                            size_t file_count_hint = 0);

  size_t peer_count() const { return peer_offsets_.size() - 1; }
  // One past the largest file id present (0 for an empty store).
  size_t file_bound() const { return file_offsets_.size() - 1; }
  size_t total_replicas() const { return files_.size(); }
  // Size of the largest single cache (0 for an empty store); bounds every
  // pairwise overlap, so dense histograms can be sized from it.
  size_t MaxCacheSize() const;

  std::span<const uint32_t> PeerFiles(uint32_t p) const {
    return {files_.data() + peer_offsets_[p],
            files_.data() + peer_offsets_[p + 1]};
  }
  std::span<const uint32_t> FileHolders(uint32_t f) const {
    if (f >= file_bound()) {
      return {};
    }
    return {holders_.data() + file_offsets_[f],
            holders_.data() + file_offsets_[f + 1]};
  }
  size_t CacheSize(uint32_t p) const {
    return peer_offsets_[p + 1] - peer_offsets_[p];
  }
  // Global replica slot range of peer p (slots index the flat files array;
  // the search simulator keys per-replica state off them).
  size_t PeerBegin(uint32_t p) const { return peer_offsets_[p]; }
  size_t PeerEnd(uint32_t p) const { return peer_offsets_[p + 1]; }
  uint32_t FileAtSlot(size_t slot) const { return files_[slot]; }

  // Slot of file f in peer p's slice, or kNoSlot if p does not hold f.
  // Binary search over the sorted slice.
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  size_t FindSlot(uint32_t p, uint32_t f) const {
    const uint32_t* begin = files_.data() + peer_offsets_[p];
    const uint32_t* end = files_.data() + peer_offsets_[p + 1];
    const uint32_t* it = std::lower_bound(begin, end, f);
    if (it == end || *it != f) {
      return kNoSlot;
    }
    return static_cast<size_t>(it - files_.data());
  }

  // Projection keeping only files with mask[f] == true (files at or beyond
  // mask.size() are dropped). Replaces per-file mask branches in the
  // counting loops with a one-off pre-filter.
  CacheStore Masked(const std::vector<bool>& mask) const;

  // Inflates back to the per-peer vector representation.
  StaticCaches ToStaticCaches() const;

 private:
  void BuildTranspose(size_t file_bound);

  // peer -> files CSR. Sorted ascending within each peer slice.
  std::vector<uint32_t> files_;
  std::vector<size_t> peer_offsets_{0};
  // file -> holders CSR. Ascending within each file slice (peers are
  // scanned in order during construction).
  std::vector<uint32_t> holders_;
  std::vector<size_t> file_offsets_{0};
};

// One day's caches in CacheStore form (src/trace/day_source.h). `store`
// has a row for every peer in the trace (empty when the peer was not
// observed that day) and its file bound is the largest id present plus
// one: the CacheStore::FromTraceDay layout, whichever source built it.
struct DayCaches {
  int day = 0;
  std::vector<uint32_t> peers;  // Peers observed this day, ascending.
  CacheStore store;

  // Builds the view from a serial scan of the day: scan(add) calls
  // add(peer, files, count) for each observed peer in ascending order and
  // returns false when the day does not decode (Collect then returns
  // nullopt). `entries` is a capacity hint for the flat file column.
  template <typename Scan>
  static std::optional<DayCaches> Collect(int day, size_t peer_count,
                                          size_t entries, Scan&& scan) {
    DayCaches view;
    view.day = day;
    std::vector<uint32_t> flat;
    flat.reserve(entries);
    std::vector<size_t> offsets;
    offsets.reserve(peer_count + 1);
    offsets.push_back(0);
    const bool ok = scan([&](uint32_t peer, const uint32_t* files, size_t count) {
      // Empty rows for the peers not observed since the previous snapshot.
      offsets.resize(static_cast<size_t>(peer) + 1, flat.size());
      flat.insert(flat.end(), files, files + count);
      offsets.push_back(flat.size());
      view.peers.push_back(peer);
    });
    if (!ok) {
      return std::nullopt;
    }
    offsets.resize(peer_count + 1, flat.size());
    view.store = CacheStore::FromCsr(std::move(flat), std::move(offsets));
    return view;
  }
};

// Dense per-peer overlap counter with an explicit touched list. Reusable
// across anchors: after each ForAnchor call the counter array is all zeros
// again (reset via the touched entries, not by clearing the array).
class OverlapCounter {
 public:
  OverlapCounter() = default;
  explicit OverlapCounter(size_t peer_count) { Resize(peer_count); }

  void Resize(size_t peer_count) { counts_.assign(peer_count, 0); }

  // Counts the common files between anchor `p` and every peer q > p that
  // shares at least one file with it, then calls visit(q, overlap) for each
  // such q in first-encounter order (a pure function of the store).
  template <typename Visit>
  void ForAnchor(const CacheStore& store, uint32_t p, Visit&& visit) {
    for (uint32_t f : store.PeerFiles(p)) {
      const std::span<const uint32_t> holders = store.FileHolders(f);
      // Holder lists are ascending, so the q > p candidates are a suffix.
      const uint32_t* it =
          std::upper_bound(holders.data(), holders.data() + holders.size(), p);
      const uint32_t* end = holders.data() + holders.size();
      for (; it != end; ++it) {
        const uint32_t q = *it;
        if (counts_[q]++ == 0) {
          touched_.push_back(q);
        }
      }
    }
    for (const uint32_t q : touched_) {
      visit(q, counts_[q]);
      counts_[q] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> touched_;
};

}  // namespace edk

#endif  // SRC_TRACE_CACHE_STORE_H_
