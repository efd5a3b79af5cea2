#include "src/semantic/neighbour_list.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "src/obs/metrics.h"

namespace edk {

namespace {

// Counts list-churn events across every NeighbourList in the process:
// inserts of a previously unknown uploader and swaps (an insert that
// evicted the list tail). Totals are sums of per-list work, so they stay
// deterministic under parallel sweeps.
struct ListMetrics {
  obs::Counter* inserts;
  obs::Counter* swaps;
};

ListMetrics& Metrics() {
  auto& registry = obs::MetricsRegistry::Global();
  static ListMetrics metrics{
      &registry.GetCounter("semantic.neighbour_inserts"),
      &registry.GetCounter("semantic.neighbour_swaps"),
  };
  return metrics;
}

}  // namespace

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kLru:
      return "LRU";
    case StrategyKind::kHistory:
      return "History";
    case StrategyKind::kRandom:
      return "Random";
    case StrategyKind::kPopularityWeighted:
      return "PopularityWeighted";
  }
  return "?";
}

namespace {

class LruList final : public NeighbourList {
 public:
  explicit LruList(size_t capacity) : capacity_(capacity) {}

  void RecordUpload(uint32_t uploader, double /*rarity_weight*/) override {
    auto it = std::find(peers_.begin(), peers_.end(), uploader);
    if (it != peers_.end()) {
      peers_.erase(it);
    } else {
      Metrics().inserts->Increment();
    }
    peers_.insert(peers_.begin(), uploader);
    if (peers_.size() > capacity_) {
      peers_.pop_back();
      Metrics().swaps->Increment();
    }
  }

  void Collect(size_t k, std::vector<uint32_t>& out) const override {
    const size_t take = std::min(k, peers_.size());
    out.insert(out.end(), peers_.begin(), peers_.begin() + static_cast<long>(take));
  }

  size_t size() const override { return peers_.size(); }

 private:
  size_t capacity_;
  std::vector<uint32_t> peers_;  // Most recent first; small (<= capacity).
};

// Shared implementation of the two frequency-based strategies; they differ
// only in the per-upload score increment. The full upload history is kept
// in `entries_`, so a peer pushed out of the list can climb back in, but
// only the best `capacity_` entries are ranked, in `top_`, best first.
//
// The top set is maintained exactly: an upload raises only the uploader's
// key (its score does not drop and its recency stamp is new and unique),
// so the top set changes only when that entry is in it (it moves up) or
// when it now beats the weakest member (it takes that member's place).
// RecordUpload costs one hash lookup plus O(capacity); Collect copies.
class ScoredList final : public NeighbourList {
 public:
  ScoredList(size_t capacity, bool rarity_weighted)
      : capacity_(capacity), rarity_weighted_(rarity_weighted) {}

  void RecordUpload(uint32_t uploader, double rarity_weight) override {
    const double increment = rarity_weighted_ ? rarity_weight : 1.0;
    assert(increment >= 0 && "a negative or NaN weight could lower a key");
    auto [it, inserted] = entries_.try_emplace(uploader);
    if (inserted) {
      Metrics().inserts->Increment();
    }
    Entry& entry = it->second;
    entry.score += increment;
    entry.last_used = ++clock_;

    // A full list whose weakest member still beats the new key cannot
    // contain the uploader (a member's key only grows), so nothing moves.
    if (top_.size() == capacity_ && !Better(entry, top_.back().key)) {
      return;
    }
    size_t pos = 0;
    while (pos < top_.size() && top_[pos].peer != uploader) {
      ++pos;
    }
    if (pos == top_.size()) {  // Not ranked yet: append or replace the weakest.
      if (top_.size() < capacity_) {
        top_.emplace_back();
      }
      pos = top_.size() - 1;
    }
    top_[pos] = {uploader, entry};
    for (; pos > 0 && Better(top_[pos].key, top_[pos - 1].key); --pos) {
      std::swap(top_[pos], top_[pos - 1]);
    }
  }

  void Collect(size_t k, std::vector<uint32_t>& out) const override {
    const size_t take = std::min(k, top_.size());
    for (size_t i = 0; i < take; ++i) {
      out.push_back(top_[i].peer);
    }
  }

  size_t size() const override { return top_.size(); }

 private:
  struct Entry {
    double score = 0;
    uint64_t last_used = 0;
  };
  struct Ranked {
    uint32_t peer;
    Entry key;  // Copy of entries_[peer] as of its last upload.
  };

  // Higher score first; the more recent upload breaks ties.
  static bool Better(const Entry& a, const Entry& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.last_used > b.last_used;
  }

  size_t capacity_;
  bool rarity_weighted_;
  uint64_t clock_ = 0;
  std::unordered_map<uint32_t, Entry> entries_;
  std::vector<Ranked> top_;  // Best first; size() <= capacity_.
};

}  // namespace

std::unique_ptr<NeighbourList> MakeNeighbourList(StrategyKind kind, size_t capacity) {
  assert(capacity > 0);
  switch (kind) {
    case StrategyKind::kLru:
      return std::make_unique<LruList>(capacity);
    case StrategyKind::kHistory:
      return std::make_unique<ScoredList>(capacity, /*rarity_weighted=*/false);
    case StrategyKind::kPopularityWeighted:
      return std::make_unique<ScoredList>(capacity, /*rarity_weighted=*/true);
    case StrategyKind::kRandom:
      break;
  }
  assert(false && "Random strategy has no per-peer list");
  return nullptr;
}

}  // namespace edk
