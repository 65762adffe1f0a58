#pragma once

// Synthetic "road field" shared by the core test suites: deterministic RSSI
// per (road metre, channel) with structure on both axes. Two vehicles that
// cover the same road metres see the same field, so a suite can plant a
// known overlap offset and check that the SYN search recovers it.

#include <cstddef>
#include <cstdint>

#include "util/hash_noise.hpp"

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

}  // namespace rups::test
