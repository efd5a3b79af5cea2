// Semantic neighbour list strategies (paper §5.2).
//
// Each peer maintains a small list of peers that successfully served it in
// the past and queries them first on future searches:
//   - LRU: most-recently-used uploader at the head, fixed capacity.
//   - History: frequency-based — peers with the most successful uploads
//     (the "History" policy of Voulgaris et al. [30]).
//   - PopularityWeighted: like History but an upload of a rare file counts
//     for more (1/popularity), which keeps lists from being contaminated by
//     links that only reflect popular files (§5.3.2 discussion / [30]).
// The Random baseline needs no per-peer state and lives in the simulator.

#ifndef SRC_SEMANTIC_NEIGHBOUR_LIST_H_
#define SRC_SEMANTIC_NEIGHBOUR_LIST_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace edk {

enum class StrategyKind {
  kLru,
  kHistory,
  kRandom,
  kPopularityWeighted,
};

const char* StrategyName(StrategyKind kind);

class NeighbourList {
 public:
  virtual ~NeighbourList() = default;

  // Records a successful retrieval from `uploader`. `rarity_weight` is
  // 1/popularity of the retrieved file at retrieval time (only the
  // popularity-weighted strategy uses it).
  virtual void RecordUpload(uint32_t uploader, double rarity_weight) = 0;

  // Appends at most min(k, capacity) neighbours to `out`, best candidate
  // first.
  virtual void Collect(size_t k, std::vector<uint32_t>& out) const = 0;

  // Neighbours currently listed (<= capacity).
  virtual size_t size() const = 0;
};

// `capacity` is the neighbour-list length (the single design parameter of
// LRU, §5.2) and bounds what Collect returns for every strategy. The
// frequency-based strategies remember every uploader's score, so a peer
// that fell out of the list climbs back once its score beats the tail's.
std::unique_ptr<NeighbourList> MakeNeighbourList(StrategyKind kind, size_t capacity);

}  // namespace edk

#endif  // SRC_SEMANTIC_NEIGHBOUR_LIST_H_
