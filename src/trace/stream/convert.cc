#include "src/trace/stream/convert.h"

#include <fstream>
#include <utility>
#include <vector>

#include "src/trace/day_source.h"
#include "src/trace/serialize.h"
#include "src/trace/stream/format.h"
#include "src/trace/stream/trace_writer.h"

namespace edk::stream {

bool SaveTraceV2ToFile(const Trace& trace, const std::string& path,
                       std::string* error, const TraceWriter::Options& options) {
  auto writer =
      TraceWriter::Create(path, trace.files(), trace.peers(), error, options);
  if (!writer.has_value()) {
    return false;
  }
  // Transpose peer-major v1 timelines into day-major segments; days with
  // no snapshots are not represented in either format.
  const TraceDaySource source(trace);
  TraceDaySource::Scratch scratch;
  for (int day = trace.first_day(); day <= trace.last_day() && writer->ok();
       ++day) {
    bool open = false;
    source.ForEachSnapshot(
        day, scratch, [&](uint32_t peer, const uint32_t* files, size_t count) {
          if (!open) {
            open = writer->BeginDay(day);
          }
          if (open) {
            writer->AddSnapshot(peer, {files, count});
          }
        });
    if (open) {
      writer->EndDay();
    }
  }
  const bool ok = writer->ok() && writer->Finish();
  if (!ok && error != nullptr) {
    *error = writer->error();
  }
  return ok;
}

std::optional<Trace> MaterializeTrace(const TraceReader& reader,
                                      std::string* error) {
  Trace trace;
  for (uint64_t f = 0; f < reader.file_count(); ++f) {
    trace.AddFile(reader.FileAt(static_cast<uint32_t>(f)));
  }
  for (uint64_t p = 0; p < reader.peer_count(); ++p) {
    trace.AddPeer(reader.PeerAt(static_cast<uint32_t>(p)));
  }
  // Day segments are ascending, so per-peer AddSnapshot calls arrive in
  // increasing-day order — exactly the PeerTimeline invariant.
  DecodeArena arena;
  std::vector<FileId> cache;
  for (const TraceReader::DayInfo& info : reader.days()) {
    const bool ok = reader.ForEachSnapshot(
        info, arena, [&](uint32_t peer, const uint32_t* files, size_t count) {
          cache.clear();
          cache.reserve(count);
          for (size_t i = 0; i < count; ++i) {
            cache.push_back(FileId(files[i]));
          }
          trace.AddSnapshot(PeerId(peer), info.day, cache);
        });
    if (!ok) {
      if (error != nullptr) {
        *error = "corrupt day segment for day " + std::to_string(info.day);
      }
      return std::nullopt;
    }
  }
  return trace;
}

std::optional<uint32_t> SniffTraceVersion(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  uint8_t magic_bytes[4];
  if (!is || !is.read(reinterpret_cast<char*>(magic_bytes), 4)) {
    return std::nullopt;
  }
  const uint32_t magic = LoadU32(magic_bytes);
  if (magic == kMagicV1) {
    return 1;
  }
  if (magic == kMagicV2) {
    return 2;
  }
  return std::nullopt;
}

std::optional<Trace> LoadAnyTraceFromFile(const std::string& path,
                                          std::string* error) {
  const auto version = SniffTraceVersion(path);
  if (!version.has_value()) {
    if (error != nullptr) {
      *error = "'" + path + "' is not an EDKT trace (unknown magic)";
    }
    return std::nullopt;
  }
  if (*version == 1) {
    auto trace = LoadTraceFromFile(path);
    if (!trace.has_value() && error != nullptr) {
      *error = "'" + path + "' failed EDKT v1 validation";
    }
    return trace;
  }
  auto reader = TraceReader::Open(path, error);
  if (!reader.has_value()) {
    return std::nullopt;
  }
  return MaterializeTrace(*reader, error);
}

bool ConvertTraceFile(const std::string& input, const std::string& output,
                      uint32_t target_version, std::string* error,
                      const TraceWriter::Options& options) {
  if (target_version != 1 && target_version != 2) {
    if (error != nullptr) {
      *error = "unsupported target version " + std::to_string(target_version);
    }
    return false;
  }
  // The load materialises (and unmaps) the input before any write happens,
  // so output == input performs an in-place upgrade.
  auto trace = LoadAnyTraceFromFile(input, error);
  if (!trace.has_value()) {
    return false;
  }
  if (target_version == 1) {
    if (!SaveTraceToFile(*trace, output)) {
      if (error != nullptr) {
        *error = "failed to write '" + output + "' (disk full?)";
      }
      return false;
    }
    return true;
  }
  return SaveTraceV2ToFile(*trace, output, error, options);
}

ValidationReport ValidateTraceFile(const std::string& path) {
  ValidationReport report;
  const auto version = SniffTraceVersion(path);
  if (!version.has_value()) {
    report.error = "'" + path + "' is not an EDKT trace (unknown magic)";
    return report;
  }
  report.version = *version;
  if (*version == 1) {
    const auto trace = LoadTraceFromFile(path);
    if (!trace.has_value()) {
      report.error = "'" + path + "' failed EDKT v1 validation";
      return report;
    }
    report.peers = trace->peer_count();
    report.files = trace->file_count();
    report.snapshots = trace->TotalSnapshots();
    std::vector<bool> seen;
    if (trace->last_day() >= trace->first_day()) {
      seen.assign(static_cast<size_t>(trace->last_day() - trace->first_day()) + 1,
                  false);
    }
    for (size_t p = 0; p < trace->peer_count(); ++p) {
      for (const CacheSnapshot& snapshot :
           trace->timeline(PeerId(static_cast<uint32_t>(p))).snapshots) {
        report.file_entries += snapshot.files.size();
        seen[static_cast<size_t>(snapshot.day - trace->first_day())] = true;
      }
    }
    for (const bool day_seen : seen) {
      report.days += day_seen ? 1 : 0;
    }
    report.ok = true;
    return report;
  }
  auto reader = TraceReader::Open(path, &report.error);
  if (!reader.has_value()) {
    return report;
  }
  report.peers = reader->peer_count();
  report.files = reader->file_count();
  // Open validates the skeleton; finish the job by decoding every payload
  // and verifying every block checksum against the footer directory.
  DecodeArena arena;
  for (const TraceReader::DayInfo& info : reader->days()) {
    for (const TraceReader::BlockInfo& block : info.blocks) {
      if (HashBytes64(reader->DataAt(block.offset),
                      static_cast<size_t>(block.bytes)) != block.checksum) {
        report.error = "block checksum mismatch in day " +
                       std::to_string(info.day);
        return report;
      }
    }
    if (!reader->ForEachSnapshot(info, arena,
                                 [](uint32_t, const uint32_t*, size_t) {})) {
      report.error = "corrupt day segment for day " + std::to_string(info.day);
      return report;
    }
    ++report.days;
    report.snapshots += info.snapshots;
    report.file_entries += info.file_entries;
    report.blocks += TraceReader::BlockCount(info);
  }
  report.ok = true;
  return report;
}

}  // namespace edk::stream
