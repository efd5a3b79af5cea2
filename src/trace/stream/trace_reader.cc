#include "src/trace/stream/trace_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/exec/parallel.h"
#include "src/trace/stream/parallel_scan.h"

namespace edk::stream {

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    file_count_ = other.file_count_;
    peer_count_ = other.peer_count_;
    file_rows_offset_ = other.file_rows_offset_;
    peer_rows_offset_ = other.peer_rows_offset_;
    days_ = std::move(other.days_);
  }
  return *this;
}

TraceReader::~TraceReader() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

std::optional<TraceReader> TraceReader::Open(const std::string& path,
                                             std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<TraceReader> {
    if (error != nullptr) {
      *error = "'" + path + "': " + message;
    }
    return std::nullopt;
  };

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return fail("cannot open");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return fail("cannot stat");
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  // Smallest valid file: header, two empty tables, empty-day footer, trailer.
  const uint64_t min_size = kHeaderBytes + 2 * (kSegmentHeaderBytes + 8) +
                            kSegmentHeaderBytes + 33 + kTrailerBytes;
  if (size < min_size) {
    ::close(fd);
    return fail("too small to be an EDKT v2 file");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (map == MAP_FAILED) {
    return fail("mmap failed");
  }

  TraceReader reader;
  reader.data_ = static_cast<const uint8_t*>(map);
  reader.size_ = size;
  const uint8_t* data = reader.data_;

  if (LoadU32(data) != kMagicV2 || LoadU32(data + 4) != kVersionV2) {
    return fail(LoadU32(data) == kMagicV1
                    ? "EDKT v1 file (use convert, or LoadAnyTraceFromFile)"
                    : "bad magic/version");
  }
  if (LoadU32(data + size - 4) != kTrailerMagic) {
    return fail("bad trailer magic (truncated or unfinished file?)");
  }
  const uint64_t footer_offset = LoadU64(data + size - kTrailerBytes);
  // Compare by subtraction: `footer_offset + kSegmentHeaderBytes` can wrap
  // for adversarial offsets near UINT64_MAX and sneak past the bound.
  if (footer_offset < kHeaderBytes ||
      footer_offset > size - kTrailerBytes - kSegmentHeaderBytes) {
    return fail("footer offset out of range");
  }
  if (data[footer_offset] != kTagFooter) {
    return fail("trailer does not point at a footer segment");
  }
  const uint64_t footer_bytes = LoadU64(data + footer_offset + 1);
  // The footer must run exactly up to the trailer: trailing junk between
  // them would mean the trailer belongs to some other write.
  if (footer_bytes != size - kTrailerBytes - footer_offset - kSegmentHeaderBytes) {
    return fail("footer size does not reach the trailer");
  }

  const uint8_t* p = data + footer_offset + kSegmentHeaderBytes;
  const uint8_t* end = p + footer_bytes;
  if (footer_bytes < 33) {  // 4 x u64 + >= 1 varint byte.
    return fail("footer too small");
  }
  reader.file_count_ = LoadU64(p);
  reader.peer_count_ = LoadU64(p + 8);
  const uint64_t file_table_offset = LoadU64(p + 16);
  const uint64_t peer_table_offset = LoadU64(p + 24);
  p += 32;
  if (reader.file_count_ > 0xffffffffu || reader.peer_count_ > 0xffffffffu) {
    return fail("table count exceeds the 32-bit id space");
  }

  // Validate a table segment in place and return the offset of its first row.
  const auto check_table = [&](uint64_t offset, uint8_t tag, uint64_t count,
                               uint64_t row_bytes, uint64_t& rows_offset) {
    const uint64_t payload = 8 + count * row_bytes;
    if (offset < kHeaderBytes || offset >= footer_offset ||
        footer_offset - offset < kSegmentHeaderBytes ||
        payload > footer_offset - offset - kSegmentHeaderBytes) {
      return false;
    }
    if (data[offset] != tag || LoadU64(data + offset + 1) != payload ||
        LoadU64(data + offset + kSegmentHeaderBytes) != count) {
      return false;
    }
    rows_offset = offset + kSegmentHeaderBytes + 8;
    return true;
  };
  if (!check_table(file_table_offset, kTagFileTable, reader.file_count_,
                   kFileRowBytes, reader.file_rows_offset_)) {
    return fail("file table does not match the footer");
  }
  if (!check_table(peer_table_offset, kTagPeerTable, reader.peer_count_,
                   kPeerRowBytes, reader.peer_rows_offset_)) {
    return fail("peer table does not match the footer");
  }
  // The v1 loader rejects unknown category bytes; the mmap path must not be
  // the one place a wild enum value can enter the system.
  for (uint64_t f = 0; f < reader.file_count_; ++f) {
    const uint8_t category = data[reader.file_rows_offset_ + f * kFileRowBytes + 8];
    if (category > static_cast<uint8_t>(FileCategory::kOther)) {
      return fail("file row with invalid category byte");
    }
  }

  uint64_t day_count = 0;
  if (!wire::ReadVarint(p, end, day_count) || day_count > kMaxTraceDay + 1 ||
      day_count > static_cast<uint64_t>(end - p) / 11) {
    // Each footer day entry is >= 11 bytes (1 + 8 + 1 + 1).
    return fail("footer day count not backed by the footer size");
  }
  reader.days_.reserve(day_count);
  int previous_day = -1;
  for (uint64_t i = 0; i < day_count; ++i) {
    uint64_t zz_day = 0;
    if (!wire::ReadVarint(p, end, zz_day) || end - p < 8) {
      return fail("truncated footer day entry");
    }
    const int64_t day = wire::ZigZagDecode(zz_day);
    const uint64_t offset = LoadU64(p);
    p += 8;
    uint64_t snapshots = 0;
    uint64_t entries = 0;
    if (!wire::ReadVarint(p, end, snapshots) ||
        !wire::ReadVarint(p, end, entries)) {
      return fail("truncated footer day entry");
    }
    if (day < 0 || day > static_cast<int64_t>(kMaxTraceDay) ||
        static_cast<int64_t>(previous_day) >= day) {
      return fail("footer days not strictly increasing in range");
    }
    if (offset < kHeaderBytes || offset >= footer_offset ||
        footer_offset - offset < kSegmentHeaderBytes) {
      return fail("footer day offset out of range");
    }
    const uint8_t tag = data[offset];
    if (tag != kTagDay && tag != kTagDayBlocked) {
      return fail("footer day entry does not point at a day segment");
    }
    const uint64_t payload_bytes = LoadU64(data + offset + 1);
    if (payload_bytes > footer_offset - offset - kSegmentHeaderBytes) {
      return fail("day segment overruns the footer");
    }
    DayInfo info{static_cast<int>(day), offset + kSegmentHeaderBytes,
                 payload_bytes, snapshots, entries, {}};
    if (tag == kTagDay) {
      // Cross-check the segment's own header against the index entry; full
      // payload decoding stays deferred to ReadDay/ForEachSnapshot.
      const uint8_t* dp = data + offset + kSegmentHeaderBytes;
      DayHeader header;
      if (!ParseDayHeader(dp, dp + payload_bytes, reader.peer_count_, header) ||
          header.day != static_cast<int>(day) || header.snapshots != snapshots ||
          header.file_entries != entries) {
        return fail("day segment header disagrees with the footer");
      }
    } else {
      // Blocked day: the index entry carries the block directory. Validate
      // that the blocks tile the payload exactly and that every block's own
      // header agrees with its directory entry (payload decoding and
      // checksum verification stay deferred).
      uint64_t block_count = 0;
      // Each directory entry is >= 10 bytes (1 + 1 + 8).
      if (!wire::ReadVarint(p, end, block_count) || block_count == 0 ||
          block_count > static_cast<uint64_t>(end - p) / 10) {
        return fail("footer block count not backed by the footer size");
      }
      info.blocks.reserve(block_count);
      uint64_t cursor = info.payload_offset;
      uint64_t bytes_left = payload_bytes;
      uint64_t sum_snapshots = 0;
      uint64_t sum_entries = 0;
      for (uint64_t b = 0; b < block_count; ++b) {
        uint64_t block_snapshots = 0;
        uint64_t block_bytes = 0;
        if (!wire::ReadVarint(p, end, block_snapshots) ||
            !wire::ReadVarint(p, end, block_bytes) || end - p < 8) {
          return fail("truncated footer block entry");
        }
        const uint64_t checksum = LoadU64(p);
        p += 8;
        if (block_bytes > bytes_left) {
          return fail("block directory overruns its day segment");
        }
        const uint8_t* bp = data + cursor;
        DayHeader header;
        if (!ParseDayHeader(bp, bp + block_bytes, reader.peer_count_, header) ||
            header.day != static_cast<int>(day) ||
            header.snapshots != block_snapshots) {
          return fail("block header disagrees with the footer directory");
        }
        sum_snapshots += block_snapshots;
        sum_entries += header.file_entries;
        info.blocks.push_back(BlockInfo{cursor, block_bytes, block_snapshots,
                                        header.file_entries, checksum});
        cursor += block_bytes;
        bytes_left -= block_bytes;
      }
      if (bytes_left != 0 || sum_snapshots != snapshots ||
          sum_entries != entries) {
        return fail("block directory disagrees with the day index entry");
      }
    }
    reader.days_.push_back(std::move(info));
    previous_day = static_cast<int>(day);
  }
  if (p != end) {
    return fail("trailing bytes in the footer");
  }
  return reader;
}

const TraceReader::DayInfo* TraceReader::FindDay(int day) const {
  const auto it = std::lower_bound(
      days_.begin(), days_.end(), day,
      [](const DayInfo& info, int d) { return info.day < d; });
  if (it == days_.end() || it->day != day) {
    return nullptr;
  }
  return &*it;
}

FileMeta TraceReader::FileAt(uint32_t f) const {
  const uint8_t* row = data_ + file_rows_offset_ + f * kFileRowBytes;
  FileMeta meta;
  meta.size_bytes = LoadU64(row);
  meta.category = static_cast<FileCategory>(row[8]);  // Validated at Open.
  meta.topic = TopicId(LoadU32(row + 9));
  return meta;
}

PeerInfo TraceReader::PeerAt(uint32_t p) const {
  const uint8_t* row = data_ + peer_rows_offset_ + p * kPeerRowBytes;
  PeerInfo info;
  info.country = CountryId(LoadU32(row));
  info.autonomous_system = AsId(LoadU32(row + 4));
  info.ip_address = LoadU32(row + 8);
  info.user_id = LoadU64(row + 12);
  info.firewalled = row[20] != 0;
  return info;
}

std::vector<FileMeta> TraceReader::Files() const {
  std::vector<FileMeta> files;
  files.reserve(file_count_);
  for (uint64_t f = 0; f < file_count_; ++f) {
    files.push_back(FileAt(static_cast<uint32_t>(f)));
  }
  return files;
}

std::vector<PeerInfo> TraceReader::Peers() const {
  std::vector<PeerInfo> peers;
  peers.reserve(peer_count_);
  for (uint64_t p = 0; p < peer_count_; ++p) {
    peers.push_back(PeerAt(static_cast<uint32_t>(p)));
  }
  return peers;
}

std::optional<TraceReader::DayCaches> TraceReader::ReadDay(
    const DayInfo& info, std::string* error) const {
  const auto fail = [&]() -> std::optional<DayCaches> {
    if (error != nullptr) {
      *error = "corrupt day segment for day " + std::to_string(info.day);
    }
    return std::nullopt;
  };
  if (info.blocks.size() >= 2 && DefaultThreads() > 1) {
    DayCaches result;
    result.day = info.day;
    // Block-parallel fill. The footer block directory gives every block's
    // snapshot and entry counts up front, so each block owns a disjoint
    // slice of the observed-peer, size and flat-entry arrays — the filled
    // contents are position-identical to the serial decode by construction.
    result.peers.resize(info.snapshots);
    std::vector<uint32_t> sizes(info.snapshots);
    std::vector<uint32_t> flat(info.file_entries);
    std::vector<uint64_t> snap_base(info.blocks.size(), 0);
    std::vector<uint64_t> entry_base(info.blocks.size(), 0);
    for (size_t b = 1; b < info.blocks.size(); ++b) {
      snap_base[b] = snap_base[b - 1] + info.blocks[b - 1].snapshots;
      entry_base[b] = entry_base[b - 1] + info.blocks[b - 1].file_entries;
    }
    std::vector<uint8_t> ok(info.blocks.size(), 0);
    ArenaPool arenas;
    ParallelFor(0, info.blocks.size(), [&](size_t b) {
      ArenaPool::Lease arena(arenas);
      // Open pinned each block's header against the footer directory, so
      // the decode fills its slice exactly — but the mapped bytes can
      // change under us on disk, so the slice bounds are re-checked before
      // every write rather than trusted.
      const uint64_t snap_limit = snap_base[b] + info.blocks[b].snapshots;
      const uint64_t entry_limit = entry_base[b] + info.blocks[b].file_entries;
      uint64_t snap = snap_base[b];
      uint64_t entry = entry_base[b];
      bool in_bounds = true;
      const bool decoded = ForEachSnapshotInBlock(
          info, b, *arena,
          [&](uint32_t peer, const uint32_t* files, size_t count) {
            if (snap >= snap_limit || count > entry_limit - entry) {
              in_bounds = false;
              return;
            }
            result.peers[snap] = peer;
            sizes[snap] = static_cast<uint32_t>(count);
            ++snap;
            std::copy(files, files + count, flat.begin() + entry);
            entry += count;
          });
      ok[b] = decoded && in_bounds && snap == snap_limit && entry == entry_limit;
    });
    for (size_t b = 0; b < info.blocks.size(); ++b) {
      if (ok[b] == 0) {
        return fail();
      }
    }
    // Cross-block peer ordering, in block order (the parallel decode could
    // not check it inline).
    for (uint64_t i = 1; i < info.snapshots; ++i) {
      if (result.peers[i] <= result.peers[i - 1]) {
        return fail();
      }
    }
    std::vector<size_t> offsets(peer_count_ + 1);
    size_t idx = 0;
    size_t acc = 0;
    for (uint64_t i = 0; i < info.snapshots; ++i) {
      const uint32_t peer = result.peers[i];
      while (idx <= peer) {
        offsets[idx++] = acc;
      }
      acc += sizes[i];
      offsets[idx++] = acc;
    }
    while (idx <= peer_count_) {
      offsets[idx++] = acc;
    }
    result.store = CacheStore::FromCsr(std::move(flat), std::move(offsets));
    return result;
  }
  DecodeArena arena;
  std::optional<DayCaches> view =
      DayCaches::Collect(info.day, peer_count_, info.file_entries, [&](auto add) {
        return ForEachSnapshot(info, arena, add);
      });
  return view.has_value() ? std::move(view) : fail();
}

}  // namespace edk::stream
