#pragma once

#include <optional>
#include <vector>

#include "core/types.hpp"

namespace rups::core {

/// Integrates estimated speed along the estimated heading and emits one
/// GeoSample per metre of estimated travel (the paper's T^m geographical
/// trajectory: (theta_i, t_i) at each metre mark, Sec. IV-B).
class DeadReckoner {
 public:
  /// Advance to `time_s` with the current heading and speed estimates;
  /// returns the metre marks crossed during this step (usually 0 or 1).
  std::vector<GeoSample> advance(double time_s, double heading_rad,
                                 double speed_mps);

  /// Restart integration at `time_s` without moving: the next advance()
  /// integrates from here. No-op before the first advance().
  void reanchor(double time_s, double speed_mps) noexcept;

  /// Estimated odometer (m).
  [[nodiscard]] double odometer_m() const noexcept { return distance_; }

  /// Estimated odometer at an earlier instant, back-extrapolated with the
  /// last known speed (used to place asynchronous RSSI measurements).
  [[nodiscard]] double odometer_at(double time_s) const noexcept;

  /// Metre marks emitted so far.
  [[nodiscard]] std::uint64_t marks_emitted() const noexcept { return marks_; }

 private:
  double distance_ = 0.0;
  double last_time_ = 0.0;
  double last_speed_ = 0.0;
  bool started_ = false;
  std::uint64_t marks_ = 0;
};

}  // namespace rups::core
