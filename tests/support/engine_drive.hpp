#pragma once

// Sensor-level drive shared by the engine suites: a RupsEngine fed IMU, OBD
// and GSM dwell streams over a synthetic straight road, so a suite can
// replay the exact inputs that built one engine's context (binder
// back-fill included) through another front end.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/engine.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace rups::test {

inline constexpr std::size_t kEngineChannels = 24;

/// RSSI of channel `ch` at road metre `metre`.
inline float engine_road_rssi(std::int64_t metre, std::size_t ch) {
  const util::HashNoise chan_noise(0xF00D);
  const util::LatticeField1D spatial(util::hash_combine(9, ch), 8.0, 2);
  return static_cast<float>(
      -95.0 + 40.0 * chan_noise.uniform(static_cast<std::int64_t>(ch)) +
      6.0 * spatial.value(static_cast<double>(metre)));
}

/// Vehicle-frame sensors and a 40 m x top-16 checking window.
inline core::RupsConfig engine_test_config() {
  core::RupsConfig cfg;
  cfg.channels = kEngineChannels;
  cfg.assume_aligned_sensors = true;
  cfg.syn.window_m = 40;
  cfg.syn.top_channels = 16;
  return cfg;
}

/// Drives an engine over the synthetic road: constant speed, straight
/// east, one dwell every 15 ms cycling through the channels. A channel for
/// which `silent(road_m, channel)` holds is not heard; `every_second` runs
/// once per simulated second.
inline void drive_engine(core::RupsEngine& engine, double start_road_m,
                         double distance_m, double speed_mps,
                         std::uint64_t noise_seed,
                         bool (*silent)(double, std::size_t) = nullptr,
                         const std::function<void()>& every_second = {}) {
  util::Rng rng(noise_seed);
  const double dt = 0.005;
  const double duration = distance_m / speed_mps;
  double next_obd = 0.0;
  double next_dwell = 0.0;
  double next_second = 1.0;
  std::size_t dwell_channel = 0;
  for (double t = 0.0; t <= duration; t += dt) {
    if (t >= next_obd) {
      engine.on_speed({t, speed_mps});
      next_obd += 2.0;
    }
    if (every_second && t >= next_second) {
      every_second();
      next_second += 1.0;
    }
    sensors::ImuSample imu;
    imu.time_s = t;
    imu.accel_mps2 = {0.0, 0.0, 9.80665};
    imu.mag_ut = {-30.0, 0.0, -35.0};  // heading 0 (east)
    engine.on_imu(imu);
    while (t >= next_dwell) {
      const double road_pos = start_road_m + speed_mps * next_dwell;
      sensors::RssiMeasurement m;
      m.time_s = next_dwell;
      m.channel_index = dwell_channel;
      m.rssi_dbm =
          engine_road_rssi(static_cast<std::int64_t>(std::floor(road_pos)),
                           dwell_channel) +
          rng.gaussian(0.0, 0.5);
      if (silent == nullptr || !silent(road_pos, dwell_channel)) {
        engine.on_rssi(m);
      }
      dwell_channel = (dwell_channel + 1) % kEngineChannels;
      next_dwell += 0.015;
    }
  }
}

}  // namespace rups::test
