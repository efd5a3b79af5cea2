#include "src/trace/cache_store.h"

#include <utility>

#include "src/trace/day_source.h"

namespace edk {

void CacheStore::BuildTranspose(size_t file_bound) {
  // Counting sort: holder counts -> offsets -> fill. Scanning peers in
  // ascending order leaves every holder slice ascending.
  file_offsets_.assign(file_bound + 1, 0);
  for (const uint32_t f : files_) {
    ++file_offsets_[f + 1];
  }
  for (size_t f = 0; f < file_bound; ++f) {
    file_offsets_[f + 1] += file_offsets_[f];
  }
  holders_.resize(files_.size());
  std::vector<size_t> cursor(file_offsets_.begin(), file_offsets_.end() - 1);
  const size_t peers = peer_count();
  for (uint32_t p = 0; p < peers; ++p) {
    for (const uint32_t f : PeerFiles(p)) {
      holders_[cursor[f]++] = p;
    }
  }
}

CacheStore CacheStore::FromStaticCaches(const StaticCaches& caches,
                                        size_t file_count_hint) {
  CacheStore store;
  store.peer_offsets_.reserve(caches.caches.size() + 1);
  size_t total = 0;
  for (const auto& cache : caches.caches) {
    total += cache.size();
  }
  store.files_.reserve(total);
  size_t file_bound = file_count_hint;
  for (const auto& cache : caches.caches) {
    for (const FileId f : cache) {
      store.files_.push_back(f.value);
      file_bound = std::max<size_t>(file_bound, f.value + 1);
    }
    store.peer_offsets_.push_back(store.files_.size());
  }
  store.BuildTranspose(file_bound);
  return store;
}

CacheStore CacheStore::FromTraceDay(const Trace& trace, int day) {
  return std::move(TraceDaySource(trace).ReadDay(day)->store);
}

CacheStore CacheStore::FromCsr(std::vector<uint32_t> files,
                               std::vector<size_t> peer_offsets,
                               size_t file_count_hint) {
  CacheStore store;
  store.files_ = std::move(files);
  store.peer_offsets_ = std::move(peer_offsets);
  size_t file_bound = file_count_hint;
  for (const uint32_t f : store.files_) {
    file_bound = std::max<size_t>(file_bound, f + 1);
  }
  store.BuildTranspose(file_bound);
  return store;
}

size_t CacheStore::MaxCacheSize() const {
  size_t max_size = 0;
  for (size_t p = 0; p + 1 < peer_offsets_.size(); ++p) {
    max_size = std::max(max_size, peer_offsets_[p + 1] - peer_offsets_[p]);
  }
  return max_size;
}

CacheStore CacheStore::Masked(const std::vector<bool>& mask) const {
  CacheStore store;
  store.peer_offsets_.reserve(peer_offsets_.size());
  store.files_.reserve(files_.size());
  size_t file_bound = 0;
  const size_t peers = peer_count();
  for (uint32_t p = 0; p < peers; ++p) {
    for (const uint32_t f : PeerFiles(p)) {
      if (f < mask.size() && mask[f]) {
        store.files_.push_back(f);
        file_bound = std::max<size_t>(file_bound, f + 1);
      }
    }
    store.peer_offsets_.push_back(store.files_.size());
  }
  store.BuildTranspose(file_bound);
  return store;
}

StaticCaches CacheStore::ToStaticCaches() const {
  StaticCaches caches;
  const size_t peers = peer_count();
  caches.caches.resize(peers);
  for (uint32_t p = 0; p < peers; ++p) {
    const auto slice = PeerFiles(p);
    auto& out = caches.caches[p];
    out.reserve(slice.size());
    for (const uint32_t f : slice) {
      out.push_back(FileId(f));
    }
  }
  return caches;
}

}  // namespace edk
