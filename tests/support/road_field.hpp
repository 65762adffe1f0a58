#pragma once

// Synthetic "road field" shared by the core test suites: deterministic RSSI
// per (road metre, channel) with structure on both axes. Two vehicles that
// cover the same road metres see the same field, so a suite can plant a
// known overlap offset (drive() two vehicles over it) and check that the
// SYN search recovers it.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/syn_seeker.hpp"
#include "core/types.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace rups::test {

inline float road_rssi(std::uint64_t road_seed, std::int64_t metre,
                       std::size_t ch) {
  const util::HashNoise chan_noise(road_seed ^ 0xABCDULL);
  const util::LatticeField1D spatial(
      util::hash_combine(road_seed, static_cast<std::uint64_t>(ch)), 8.0, 2);
  const double base =
      -95.0 + 40.0 * chan_noise.uniform(static_cast<std::int64_t>(ch));
  return static_cast<float>(base +
                            6.0 * spatial.value(static_cast<double>(metre)));
}

struct DriveOptions {
  std::size_t capacity = 0;  ///< trajectory capacity; 0 = the drive length
  /// Below 1, one uniform draw keeps each (metre, channel) reading with
  /// this probability; a dropped reading draws no noise.
  double usable_fraction = 1.0;
};

/// Vehicle trajectory covering road metres [road_start, road_start + len):
/// road_rssi plus N(0, sigma) measurement noise from `noise_seed`, one entry
/// per metre with GeoSample time = metre index.
inline core::ContextTrajectory drive(std::uint64_t road_seed,
                                     std::int64_t road_start, std::size_t len,
                                     std::size_t channels, double sigma,
                                     std::uint64_t noise_seed,
                                     DriveOptions options = {}) {
  core::ContextTrajectory traj(channels,
                               options.capacity != 0 ? options.capacity : len);
  util::Rng rng(noise_seed);
  for (std::size_t i = 0; i < len; ++i) {
    core::PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (options.usable_fraction < 1.0 &&
          rng.uniform() > options.usable_fraction) {
        continue;
      }
      pv.set(c, road_rssi(road_seed,
                          road_start + static_cast<std::int64_t>(i), c) +
                    static_cast<float>(rng.gaussian(0.0, sigma)));
    }
    traj.append(core::GeoSample{0.0, static_cast<double>(i)}, std::move(pv));
  }
  return traj;
}

/// The compact SYN search the road-field suites run: 40 m x top-20
/// window, the paper's 1.2 threshold.
inline core::SynConfig small_config() {
  core::SynConfig cfg;
  cfg.window_m = 40;
  cfg.top_channels = 20;
  cfg.coherency_threshold = 1.2;
  return cfg;
}

}  // namespace rups::test
