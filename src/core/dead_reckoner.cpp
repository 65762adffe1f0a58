#include "core/dead_reckoner.hpp"

#include <algorithm>
#include <cmath>

namespace rups::core {

std::vector<GeoSample> DeadReckoner::advance(double time_s, double heading_rad,
                                             double speed_mps) {
  std::vector<GeoSample> out;
  if (!started_) {
    started_ = true;
    last_time_ = time_s;
    last_speed_ = speed_mps;
    return out;
  }
  const double dt = time_s - last_time_;
  if (dt <= 0.0) return out;
  // Trapezoidal speed integration over the step.
  distance_ += 0.5 * (last_speed_ + speed_mps) * dt;
  last_time_ = time_s;
  last_speed_ = speed_mps;

  while (static_cast<double>(marks_ + 1) <= distance_) {
    ++marks_;
    out.push_back(GeoSample{heading_rad, time_s});
  }
  return out;
}

void DeadReckoner::reanchor(double time_s, double speed_mps) noexcept {
  if (!started_) return;
  last_time_ = time_s;
  last_speed_ = speed_mps;
}

double DeadReckoner::odometer_at(double time_s) const noexcept {
  const double dt = time_s - last_time_;
  return std::max(0.0, distance_ + last_speed_ * dt);
}

}  // namespace rups::core
