// mmap-backed EDKT v2 reader (DESIGN.md §6h).
//
// Open() maps the whole file read-only and validates the fixed skeleton:
// header, trailer, footer index, both tables (including every file row's
// category byte, mirroring the v1 loader), and the header of every day
// segment against its footer entry. Crucially it does NOT decode day
// payloads — opening a multi-GB trace touches a few pages plus the tables,
// and serving one day touches only that day's segment. That is what makes
// the analysis pipeline out-of-core: memory is bounded by the largest
// single day, never by the trace.
//
// Day access comes in two shapes:
//   * ForEachSnapshot(info, scratch, fn) — zero-copy streaming decode,
//     fn(peer, files, count) per snapshot in ascending peer order;
//   * ReadDay(info) — a DayCaches view: the observed-peer list plus a
//     CacheStore with one (possibly empty) row per peer, layout-identical
//     to CacheStore::FromTraceDay on the materialised trace.
// stream::ReaderDaySource (src/trace/day_source.h) puts both behind the
// day-source interface the analyses are written against.
//
// Every decode re-validates against the mapped bytes (the file may change
// or be corrupt on disk); failures return nullopt/false, never UB.

#ifndef SRC_TRACE_STREAM_TRACE_READER_H_
#define SRC_TRACE_STREAM_TRACE_READER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/trace/cache_store.h"
#include "src/trace/stream/format.h"
#include "src/trace/trace.h"

namespace edk::stream {

class TraceReader {
 public:
  // One block of a blocked (tag 0x04) day segment, from the footer block
  // directory cross-checked against the block's own header at Open.
  struct BlockInfo {
    uint64_t offset = 0;  // Absolute offset of the block's first byte.
    uint64_t bytes = 0;
    uint64_t snapshots = 0;
    uint64_t file_entries = 0;
    uint64_t checksum = 0;  // HashBytes64 over the block's bytes.
  };

  struct DayInfo {
    int day = 0;
    uint64_t payload_offset = 0;  // Absolute offset of the segment payload.
    uint64_t payload_bytes = 0;
    uint64_t snapshots = 0;
    uint64_t file_entries = 0;
    std::vector<BlockInfo> blocks;  // Empty for block-less (0x03) days.
  };

  using DayCaches = edk::DayCaches;

  TraceReader(TraceReader&& other) noexcept { *this = std::move(other); }
  TraceReader& operator=(TraceReader&& other) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  ~TraceReader();

  static std::optional<TraceReader> Open(const std::string& path,
                                         std::string* error = nullptr);

  uint64_t file_count() const { return file_count_; }
  uint64_t peer_count() const { return peer_count_; }
  uint64_t size_bytes() const { return size_; }

  // Raw mapped bytes at `offset` (which must come from a validated
  // DayInfo/BlockInfo) — checksum verification hashes blocks in place.
  const uint8_t* DataAt(uint64_t offset) const { return data_ + offset; }

  // Day index from the footer, ascending by day.
  const std::vector<DayInfo>& days() const { return days_; }
  const DayInfo* FindDay(int day) const;  // nullptr when absent.
  // Day span like Trace::first_day()/last_day(): {0, -1} when no days.
  int first_day() const { return days_.empty() ? 0 : days_.front().day; }
  int last_day() const { return days_.empty() ? -1 : days_.back().day; }

  // Random access into the fixed-width tables (bounds are the caller's
  // contract; ids come from validated decodes).
  FileMeta FileAt(uint32_t f) const;
  PeerInfo PeerAt(uint32_t p) const;
  // Materialised copies, for conversion back to Trace / v1.
  std::vector<FileMeta> Files() const;
  std::vector<PeerInfo> Peers() const;

  // Streaming decode of one day: fn(uint32_t peer, const uint32_t* files,
  // size_t count) per snapshot in ascending peer order (block chains are
  // walked in order with the cross-block peer monotonicity enforced
  // inline). Returns false on corruption (possibly after some callbacks).
  // `arena` is reused across calls to avoid reallocation in day sweeps.
  template <typename Fn>
  bool ForEachSnapshot(const DayInfo& info, DecodeArena& arena,
                       Fn&& fn) const {
    const uint8_t* p = data_ + info.payload_offset;
    return DecodeDayPayload(p, p + info.payload_bytes, peer_count_,
                            file_count_, arena, static_cast<Fn&&>(fn),
                            /*blocked=*/!info.blocks.empty());
  }

  // Number of independently decodable pieces of a day: its block count, or
  // 1 for a block-less day (whose whole payload is the single piece).
  static size_t BlockCount(const DayInfo& info) {
    return info.blocks.empty() ? 1 : info.blocks.size();
  }

  // Streaming decode of ONE block of a day (block-less days expose their
  // whole payload as block 0) — the unit of the parallel scan
  // (parallel_scan.h). Callbacks arrive in ascending peer order within the
  // block; cross-block ordering is the caller's merge-time check, via
  // `first_peer`/`last_peer` (set only when the block has snapshots).
  template <typename Fn>
  bool ForEachSnapshotInBlock(const DayInfo& info, size_t block,
                              DecodeArena& arena, Fn&& fn,
                              uint32_t* first_peer = nullptr,
                              uint32_t* last_peer = nullptr) const {
    const uint8_t* p = data_ + (info.blocks.empty()
                                    ? info.payload_offset
                                    : info.blocks[block].offset);
    const uint8_t* end =
        p + (info.blocks.empty() ? info.payload_bytes : info.blocks[block].bytes);
    if (!DecodeDayBlock(p, end, peer_count_, file_count_, /*peer_floor=*/0,
                        arena, static_cast<Fn&&>(fn), nullptr, last_peer)) {
      return false;
    }
    if (first_peer != nullptr && !arena.peers.empty()) {
      *first_peer = arena.peers.front();
    }
    return p == end;
  }

  // Decodes one day into the FromTraceDay-identical CacheStore view.
  // Blocked days with more than one block fill the view block-parallel on
  // the exec pool (disjoint slices — the result is identical to the serial
  // fill by construction); block-less days and --threads=1 decode serially.
  std::optional<DayCaches> ReadDay(const DayInfo& info,
                                   std::string* error = nullptr) const;

 private:
  TraceReader() = default;

  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint64_t file_count_ = 0;
  uint64_t peer_count_ = 0;
  uint64_t file_rows_offset_ = 0;  // First 13-byte file row.
  uint64_t peer_rows_offset_ = 0;  // First 21-byte peer row.
  std::vector<DayInfo> days_;
};

}  // namespace edk::stream

#endif  // SRC_TRACE_STREAM_TRACE_READER_H_
