#include "src/net/download_manager.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "src/common/log.h"

namespace edk {

namespace {

enum class BlockState : uint8_t { kPending, kInFlight, kDone };

struct SourceState {
  bool busy = false;
  bool dead = false;
  int consecutive_failures = 0;
  uint32_t blocks_delivered = 0;
  // Block availability of this source ("which blocks are available", §2.1).
  bool map_requested = false;
  bool map_known = false;
  std::vector<bool> available;
};

}  // namespace

struct DownloadManager::Transfer {
  SharedFileInfo info;
  Callback on_done;
  std::vector<Md4Digest> hashset;
  std::vector<BlockState> blocks;
  std::vector<int> retries_left;
  uint32_t blocks_done = 0;
  bool hashset_requested = false;
  std::unordered_map<NodeId, SourceState> sources;
  std::unordered_set<NodeId> ever_seen;
  MultiSourceReport report;
  double start_time = 0;
  EventQueue::EventHandle requery_timer;
  // Generation guard: events belonging to a finished transfer are ignored.
  bool finished = false;
};

DownloadManager::DownloadManager(SimNetwork* network, SimClient* owner,
                                 MultiSourceConfig config)
    : network_(network), owner_(owner), config_(config) {
  assert(config_.max_parallel_sources > 0);
}

DownloadManager::~DownloadManager() {
  if (transfer_ != nullptr) {
    transfer_->requery_timer.Cancel();
    transfer_->finished = true;
  }
}

bool DownloadManager::active() const { return transfer_ != nullptr; }

void DownloadManager::Fetch(const SharedFileInfo& info, Callback on_done) {
  assert(transfer_ == nullptr && "one fetch at a time");
  transfer_ = std::make_shared<Transfer>();
  transfer_->info = info;
  transfer_->on_done = std::move(on_done);
  transfer_->start_time = network_->NodeNow(owner_->node_id());
  const uint32_t blocks = owner_->BlockCount(info.size_bytes);
  transfer_->blocks.assign(blocks, BlockState::kPending);
  transfer_->retries_left.assign(blocks, config_.max_block_retries);
  transfer_->report.block_count = blocks;

  if (owner_->HasCompleteFile(info.digest)) {
    Finish(true);
    return;
  }
  DiscoverSources();
}

void DownloadManager::DiscoverSources() {
  auto transfer = transfer_;
  ++transfer->report.requery_rounds;
  auto handler = [this, transfer](std::vector<SourceRecord> sources) {
    if (transfer->finished || transfer != transfer_) {
      return;
    }
    OnSources(std::move(sources));
  };
  if (config_.use_global_queries) {
    owner_->QuerySourcesGlobal(transfer->info.digest, std::move(handler));
  } else {
    owner_->QuerySources(transfer->info.digest, std::move(handler));
  }
}

void DownloadManager::OnSources(std::vector<SourceRecord> sources) {
  auto& transfer = *transfer_;
  for (const SourceRecord& record : sources) {
    if (record.node == owner_->node_id()) {
      continue;
    }
    // Two firewalled ends cannot connect (§2.1).
    if (record.low_id && owner_->firewalled()) {
      continue;
    }
    if (transfer.ever_seen.insert(record.node).second) {
      transfer.sources.emplace(record.node, SourceState{});
      ++transfer.report.sources_discovered;
    } else {
      // Re-discovered: resurrect if it had been dropped.
      auto it = transfer.sources.find(record.node);
      if (it != transfer.sources.end() && it->second.dead) {
        it->second.dead = false;
        it->second.consecutive_failures = 0;
      }
    }
  }
  if (transfer.sources.empty() ||
      std::all_of(transfer.sources.begin(), transfer.sources.end(),
                  [](const auto& entry) { return entry.second.dead; })) {
    if (transfer.report.requery_rounds >= static_cast<uint32_t>(config_.max_requery_rounds)) {
      Finish(false);
      return;
    }
    ArmRequeryTimer();
    return;
  }
  if (!transfer.hashset_requested) {
    transfer.hashset_requested = true;
    // Ask the first live source for the hashset.
    for (const auto& [node, state] : transfer.sources) {
      if (!state.dead) {
        RequestHashset(node);
        return;
      }
    }
  } else {
    ScheduleBlocks();
  }
}

void DownloadManager::RequestHashset(NodeId source) {
  auto transfer = transfer_;
  auto* remote = dynamic_cast<SimClient*>(network_->node(source));
  if (remote == nullptr) {
    transfer->hashset_requested = false;
    DropSource(source);
    DiscoverSources();
    return;
  }
  const NodeId self = owner_->node_id();
  network_->Send(self, source, [this, transfer, remote, source, self] {
    auto hashset = remote->HandleHashsetRequest(transfer->info.digest);
    network_->Send(source, self, [this, transfer, source, hashset = std::move(hashset)]() mutable {
      if (transfer->finished || transfer != transfer_) {
        return;
      }
      if (hashset.size() != transfer->blocks.size()) {
        transfer->hashset_requested = false;
        DropSource(source);
        DiscoverSources();
        return;
      }
      transfer->hashset = std::move(hashset);
      ScheduleBlocks();
    });
  });
}

void DownloadManager::ScheduleBlocks() {
  auto& transfer = *transfer_;
  if (transfer.hashset.empty()) {
    return;  // Still waiting for the hashset.
  }
  size_t in_flight = 0;
  for (const auto& [node, state] : transfer.sources) {
    if (state.busy) {
      ++in_flight;
    }
  }
  for (auto& [node, state] : transfer.sources) {
    if (in_flight >= config_.max_parallel_sources) {
      break;
    }
    if (state.busy || state.dead) {
      continue;
    }
    if (!state.map_known) {
      // First exchange with a new source: which blocks does it hold?
      if (!state.map_requested) {
        state.map_requested = true;
        state.busy = true;
        ++in_flight;
        RequestBlockMap(node);
      }
      continue;
    }
    // Assign the first pending block this source actually holds.
    uint32_t block = static_cast<uint32_t>(transfer.blocks.size());
    for (uint32_t b = 0; b < transfer.blocks.size(); ++b) {
      if (transfer.blocks[b] == BlockState::kPending && b < state.available.size() &&
          state.available[b]) {
        block = b;
        break;
      }
    }
    if (block == transfer.blocks.size()) {
      continue;  // This source holds nothing we still need.
    }
    transfer.blocks[block] = BlockState::kInFlight;
    state.busy = true;
    ++in_flight;
    RequestBlock(node, block);
  }
  // Completion is handled in OnBlockPayload. If blocks remain but nothing
  // is in flight (no live source holds what we need), wait for the
  // 20-minute source re-query.
  if (transfer.blocks_done < transfer.blocks.size() && in_flight == 0) {
    if (transfer.report.requery_rounds >= static_cast<uint32_t>(config_.max_requery_rounds)) {
      Finish(false);
      return;
    }
    ArmRequeryTimer();
  }
}

void DownloadManager::RequestBlockMap(NodeId source) {
  auto transfer = transfer_;
  auto* remote = dynamic_cast<SimClient*>(network_->node(source));
  const NodeId self = owner_->node_id();
  if (remote == nullptr) {
    DropSource(source);
    ScheduleBlocks();
    return;
  }
  network_->Send(self, source, [this, transfer, remote, source, self] {
    auto map = remote->HandleAvailableBlocks(transfer->info.digest);
    network_->Send(source, self, [this, transfer, source, map = std::move(map)]() mutable {
      if (transfer->finished || transfer != transfer_) {
        return;
      }
      auto it = transfer->sources.find(source);
      if (it == transfer->sources.end()) {
        return;
      }
      it->second.busy = false;
      if (map.empty()) {
        DropSource(source);  // No longer shares anything of this file.
      } else {
        it->second.map_known = true;
        it->second.available = std::move(map);
      }
      ScheduleBlocks();
    });
  });
}

void DownloadManager::RequestBlock(NodeId source, uint32_t block) {
  auto transfer = transfer_;
  auto* remote = dynamic_cast<SimClient*>(network_->node(source));
  const NodeId self = owner_->node_id();
  network_->Send(self, source, [this, transfer, remote, source, self, block] {
    auto payload = remote->HandleBlockRequest(transfer->info.digest, block,
                                              network_->NodeRng(source));
    const double transmit = static_cast<double>(payload.size()) /
                            remote->config().uplink_bytes_per_second;
    network_->Send(source, self,
                   [this, transfer, source, block, payload = std::move(payload)]() mutable {
                     if (transfer->finished || transfer != transfer_) {
                       return;
                     }
                     OnBlockPayload(source, block, std::move(payload));
                   },
                   transmit);
  });
}

void DownloadManager::OnBlockPayload(NodeId source, uint32_t block,
                                     std::vector<uint8_t> payload) {
  auto& transfer = *transfer_;
  auto source_it = transfer.sources.find(source);
  if (source_it != transfer.sources.end()) {
    source_it->second.busy = false;
  }
  bool verified = false;
  if (!payload.empty()) {
    verified = Md4::Hash(payload) == transfer.hashset[block];
  }
  if (verified) {
    transfer.blocks[block] = BlockState::kDone;
    ++transfer.blocks_done;
    if (source_it != transfer.sources.end()) {
      source_it->second.consecutive_failures = 0;
      if (++source_it->second.blocks_delivered == 1) {
        ++transfer.report.sources_used;
      }
    }
    // Partial sharing: every verified block is offered on; the first one
    // triggers a republish so the owner becomes a source immediately.
    owner_->RegisterPartialBlock(transfer.info, block);
    if (transfer.blocks_done == transfer.blocks.size()) {
      Finish(true);
      return;
    }
  } else {
    if (!payload.empty()) {
      ++transfer.report.corrupted_blocks;
    }
    transfer.blocks[block] = BlockState::kPending;
    if (--transfer.retries_left[block] < 0) {
      Finish(false);
      return;
    }
    if (source_it != transfer.sources.end()) {
      if (payload.empty()) {
        // The source does not hold this block (any more): refresh its map
        // and strike it; repeated strikes retire the source.
        if (block < source_it->second.available.size()) {
          source_it->second.available[block] = false;
        }
        source_it->second.map_known = false;
        source_it->second.map_requested = false;
      }
      if (++source_it->second.consecutive_failures >= 3) {
        DropSource(source);
      }
    }
  }
  ScheduleBlocks();
}

void DownloadManager::DropSource(NodeId source) {
  auto it = transfer_->sources.find(source);
  if (it != transfer_->sources.end()) {
    it->second.dead = true;
    it->second.busy = false;
  }
}

void DownloadManager::ArmRequeryTimer() {
  auto transfer = transfer_;
  if (transfer->requery_timer.pending()) {
    return;
  }
  transfer->requery_timer = network_->ScheduleOn(
      owner_->node_id(), config_.source_requery_interval, [this, transfer] {
        if (transfer->finished || transfer != transfer_) {
          return;
        }
        DiscoverSources();
      });
}

void DownloadManager::Finish(bool success) {
  auto transfer = transfer_;
  transfer->finished = true;
  transfer->requery_timer.Cancel();
  transfer->report.success = success;
  transfer->report.duration_seconds =
      network_->NodeNow(owner_->node_id()) - transfer->start_time;
  if (success && !owner_->HasCompleteFile(transfer->info.digest)) {
    owner_->AddLocalFile(transfer->info);
    owner_->Publish();
  }
  transfer_.reset();
  if (transfer->on_done) {
    transfer->on_done(transfer->report);
  }
}

}  // namespace edk
