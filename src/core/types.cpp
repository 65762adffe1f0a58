#include "core/types.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace rups::core {

PowerVector::PowerVector(std::size_t channels)
    : rssi_(channels, 0.0f),
      state_(channels, static_cast<std::uint8_t>(ChannelState::kMissing)) {}

void PowerVector::set(std::size_t channel, float dbm, ChannelState state) {
  if (channel >= rssi_.size()) throw std::out_of_range("PowerVector::set");
  rssi_[channel] = dbm;
  state_[channel] = static_cast<std::uint8_t>(state);
}

std::size_t PowerVector::usable_count() const noexcept {
  std::size_t n = 0;
  for (std::uint8_t s : state_) {
    if (s != static_cast<std::uint8_t>(ChannelState::kMissing)) ++n;
  }
  return n;
}

std::size_t PowerVector::measured_count() const noexcept {
  std::size_t n = 0;
  for (std::uint8_t s : state_) {
    if (s == static_cast<std::uint8_t>(ChannelState::kMeasured)) ++n;
  }
  return n;
}

void PowerVector::reset() noexcept {
  std::fill(rssi_.begin(), rssi_.end(), 0.0f);
  std::fill(state_.begin(), state_.end(),
            static_cast<std::uint8_t>(ChannelState::kMissing));
}

double PowerVector::mean_usable() const noexcept {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < rssi_.size(); ++c) {
    if (usable(c)) {
      sum += rssi_[c];
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t TrajectoryIdentity::mint() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ContextTrajectory::ContextTrajectory(std::size_t channels,
                                     std::size_t capacity_m)
    : channels_(channels), capacity_(capacity_m) {
  if (channels == 0 || capacity_m == 0) {
    throw std::invalid_argument("ContextTrajectory: zero channels/capacity");
  }
  geo_.reserve(capacity_m);
  power_.reserve(capacity_m);
}

void ContextTrajectory::append(GeoSample geo, PowerVector power) {
  (void)append_evict(geo, std::move(power));
}

PowerVector ContextTrajectory::append_evict(GeoSample geo, PowerVector power) {
  if (power.channels() != channels_) {
    throw std::invalid_argument("ContextTrajectory::append: width mismatch");
  }
  PowerVector evicted;
  if (geo_.size() < capacity_) {
    geo_.push_back(geo);
    power_.push_back(std::move(power));
    return evicted;
  }
  // Full: the newest entry takes the oldest's slot, and the ring turns.
  evicted = std::exchange(power_[head_], std::move(power));
  geo_[head_] = geo;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++first_seq_;
  return evicted;
}

bool ContextTrajectory::splice_tail(const ContextTrajectory& tail) {
  if (tail.channels() != channels_) return false;
  if (tail.empty()) return true;
  if (empty()) {
    // Adopt the tail wholesale. The retained window is the tail's newest
    // min(size, capacity) entries, so entry 0 sits at the tail's indexing
    // plus whatever the appends evicted. Computed absolutely — NOT by
    // adding to the previous first_seq_: an empty trajectory may still
    // carry a non-zero odometer base (rebase(), or a fully-evicted cache),
    // and accumulating on top of it would desynchronize every subsequent
    // metre index.
    for (std::size_t i = 0; i < tail.size(); ++i) {
      append(tail.geo(i), tail.power(i));
    }
    first_seq_ = tail.first_metre() + (tail.size() - size());
    return true;
  }
  const std::uint64_t next = first_seq_ + size();
  if (tail.first_metre() > next) return false;  // gap — cannot splice
  // Overlapping metres keep our copies, so a duplicate tail re-delivered
  // after channel reorder appends nothing: the loop below only touches
  // metres at or beyond `next`, in consecutive order.
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const std::uint64_t metre = tail.first_metre() + i;
    if (metre < next) continue;  // overlap: keep our copy
    append(tail.geo(i), tail.power(i));
  }
  return true;
}

double ContextTrajectory::measured_fraction() const noexcept {
  if (empty()) return 0.0;
  std::size_t measured = 0;
  for (const auto& pv : power_) measured += pv.measured_count();
  return static_cast<double>(measured) /
         (static_cast<double>(size()) * static_cast<double>(channels_));
}

}  // namespace rups::core
