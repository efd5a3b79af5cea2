#include "perfbench/bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

void Result::Fail(std::string what) {
  ++failed;
  failures.push_back(std::move(what));
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view layer,
                     std::string_view call)
    : tracer_(tracer) {
  if (!tracer_->enabled_) {
    return;
  }
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  Span span;
  span.layer = layer;
  span.call = call;
  span.parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  span.start_s = tracer_->Now();
  tracer_->spans_.push_back(std::move(span));
  tracer_->stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  tracer_->spans_[static_cast<size_t>(index_)].end_s = tracer_->Now();
  tracer_->stack_.pop_back();
}

double Tracer::Now() const { return SecondsSince(origin_); }

std::map<std::string, double> Tracer::SelfSeconds() const {
  // Children are recorded inside their parent's interval on the same
  // thread, so a parent's covered time is the sum of its direct children.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, double> self = moved_;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] +=
        (spans_[i].end_s - spans_[i].start_s) - child_time[i];
  }
  return self;
}

void Tracer::MoveSelfTime(const std::string& from, const std::string& to,
                          double seconds) {
  if (!enabled_) {
    return;
  }
  moved_[from] -= seconds;
  moved_[to] += seconds;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"spans\": [\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"parent\": %lld, \"layer\": \"%s\", "
                  "\"call\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i, static_cast<long long>(s.parent), s.layer.c_str(),
                  s.call.c_str(), s.start_s, s.end_s,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t HashBytes(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HashValue(uint64_t hash, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  return HashBytes(hash, std::string_view(bytes, 8));
}

}  // namespace perfbench
