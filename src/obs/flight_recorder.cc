#include "src/obs/flight_recorder.h"

#include <algorithm>

namespace edk::obs {

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

void FlightRecorder::Append(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  AppendLocked(event);
}

void FlightRecorder::AppendNumbered(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.id = ++last_seq_;
  AppendLocked(event);
}

void FlightRecorder::AppendLocked(const TraceEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ++dropped_[static_cast<size_t>(ring_[head_].domain)];
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

void FlightRecorder::Collect(std::vector<TraceEvent>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->reserve(out->size() + ring_.size());
  // Once the ring has wrapped, head_ points at the oldest retained event.
  for (size_t i = head_; i < ring_.size(); ++i) {
    out->push_back(ring_[i]);
  }
  for (size_t i = 0; i < head_; ++i) {
    out->push_back(ring_[i]);
  }
}

uint64_t FlightRecorder::dropped(TimeDomain domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_[static_cast<size_t>(domain)];
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void FlightRecorder::ResetWithCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
  dropped_ = {};
}

}  // namespace edk::obs
