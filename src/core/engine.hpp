#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/binder.hpp"
#include "core/dead_reckoner.hpp"
#include "core/heading.hpp"
#include "core/reorientation.hpp"
#include "core/resolver.hpp"
#include "core/speed.hpp"
#include "core/syn_seeker.hpp"
#include "core/types.hpp"
#include "sensors/types.hpp"

namespace rups::core {

/// Fastest OBD speed RupsEngine accepts (360 km/h): no road vehicle the
/// paper targets moves faster, so a larger report is a sensor fault.
inline constexpr double kMaxPlausibleSpeedMps = 100.0;

/// Longest IMU step RupsEngine integrates. The IMU runs at ~200 Hz, so a
/// larger jump in either direction is a clock fault or a long outage:
/// integrating it would emit up to kMaxPlausibleSpeedMps metres per second
/// of the gap and evict the whole context. Such a step moves nothing; the
/// IMU clock and the dead reckoner re-anchor at the new sample.
inline constexpr double kMaxImuGapS = 1.0;

/// End-to-end RUPS configuration. Defaults follow the paper's evaluation
/// setup: 1000 m journey context, 85 m x top-45-channel checking window,
/// coherency threshold 1.2, selective average over 5 SYN points.
struct RupsConfig {
  std::size_t channels = 115;
  std::size_t context_capacity_m = 1000;
  SynConfig syn{};
  TrajectoryBinder::Config binder{};
  Aggregation aggregation = Aggregation::kSelectiveMean;
  Reorientation::Config reorientation{};
  /// Complementary-filter gain of the heading estimator.
  double heading_mag_gain = 0.5;
  /// Skip sensor-to-vehicle reorientation and treat IMU samples as already
  /// vehicle-frame (pre-calibrated mounts, synthetic traces).
  bool assume_aligned_sensors = false;
};

/// Trailing metres a maintained pack of a bound trajectory re-packs on every
/// sync: the binder back-fills interpolated channels up to
/// max_interpolation_gap_m metres behind the newest metre, so the suffix
/// covers that reach and never drops below the pack's default.
[[nodiscard]] inline std::size_t pack_volatile_suffix_m(
    const TrajectoryBinder::Config& binder) noexcept {
  return std::max(PackedContext::kDefaultVolatileSuffixM,
                  binder.max_interpolation_gap_m + 1);
}

/// The on-vehicle RUPS stack (paper Fig 5): consumes raw sensor streams,
/// maintains the vehicle's context-aware trajectory, and answers relative
/// distance queries against a neighbour's exchanged trajectory.
///
///   IMU 200 Hz ──> Reorientation ──> HeadingEstimator ─┐
///   OBD speed  ──> SpeedEstimator ───> DeadReckoner ───┴─> per-metre T^m
///   GSM dwells ──> TrajectoryBinder ───────────────────────> ST^m
///   neighbour ST^m ──> SynSeeker ──> resolve + aggregate ──> d_r
class RupsEngine {
 public:
  explicit RupsEngine(RupsConfig config = {});

  /// Feed one inertial sample (drives calibration, heading, and the
  /// per-metre trajectory emission). A non-finite time_s is refused
  /// before any state changes and counted in engine.rejected_input. A
  /// step of more than kMaxImuGapS only re-anchors the IMU clock and the
  /// dead reckoner, and is counted as engine.rejected_input{imu_gap}.
  void on_imu(const sensors::ImuSample& imu);

  /// Feed one OBD speed report. A non-finite time_s or speed_mps, or a
  /// speed above kMaxPlausibleSpeedMps, is refused before any state
  /// changes and counted in engine.rejected_input.
  void on_speed(const sensors::SpeedSample& sample);

  /// Feed one completed GSM dwell. A non-finite time_s or rssi_dbm is
  /// refused before any state changes and counted in
  /// engine.rejected_input.
  void on_rssi(const sensors::RssiMeasurement& measurement);

  /// The local context-aware trajectory (what a neighbour would receive).
  [[nodiscard]] const ContextTrajectory& context() const noexcept {
    return context_;
  }

  /// Estimated odometer (m) of the dead reckoner.
  [[nodiscard]] double odometer_m() const noexcept {
    return reckoner_.odometer_m();
  }

  /// Sensor-to-vehicle reorientation converged (or bypassed)?
  [[nodiscard]] bool calibrated() const noexcept {
    return config_.assume_aligned_sensors || reorientation_.calibrated();
  }

  /// Current heading estimate (rad).
  [[nodiscard]] double heading_rad() const noexcept {
    return heading_.heading_rad();
  }

  /// Answer a relative-distance query against a neighbour's exchanged
  /// trajectory. Positive distance = this vehicle is in front. Nullopt when
  /// no SYN point clears the coherency threshold (unrelated vehicles).
  [[nodiscard]] std::optional<RelativeDistanceEstimate> estimate_distance(
      const ContextTrajectory& neighbour) const;

  /// The SYN points themselves (diagnostics / experiments).
  [[nodiscard]] std::vector<SynPoint> find_syn_points(
      const ContextTrajectory& neighbour) const;

  [[nodiscard]] const RupsConfig& config() const noexcept { return config_; }

 private:
  RupsConfig config_;
  Reorientation reorientation_;
  HeadingEstimator heading_;
  SpeedEstimator speed_;
  DeadReckoner reckoner_;
  TrajectoryBinder binder_;
  ContextTrajectory context_;
  /// Packed copy of context_, extended incrementally at query time instead
  /// of being rebuilt per query (mutable: packing is a cache, queries stay
  /// const).
  mutable PackedContext context_pack_;
  SynSeeker seeker_;
  /// Planning workspace of seeker_, reused across queries (mutable like
  /// context_pack_).
  mutable SynSeeker::SeekScratch seek_scratch_;
  std::uint64_t next_metre_ = 0;
  double last_imu_time_ = 0.0;
  bool have_imu_time_ = false;
};

}  // namespace rups::core
