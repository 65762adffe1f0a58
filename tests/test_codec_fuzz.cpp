#include "v2v/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

// Codec robustness: (a) decode(encode(x)) == x for every value the wire
// format represents exactly, and (b) the decoder survives arbitrary
// garbage — random buffers, truncations, bit flips — by throwing
// std::invalid_argument, never by crashing or reading out of bounds. This
// binary also runs under the asan/ubsan lane (scripts/verify_matrix.sh),
// where "survives" is checked at the memory level, not just the exception
// level.

namespace rups::v2v {
namespace {

/// Trajectory whose values sit exactly on the wire grid: integral dBm
/// (the format stores dBm+128 in a u8), centisecond timestamps, headings
/// quantized by the codec's own i16 scale.
core::ContextTrajectory grid_trajectory(std::uint64_t seed,
                                        std::size_t metres,
                                        std::size_t channels,
                                        std::uint64_t first_metre = 0) {
  util::Rng rng(seed);
  core::ContextTrajectory t(channels, std::max<std::size_t>(1, metres));
  if (first_metre > 0) t.rebase(first_metre);
  for (std::size_t i = 0; i < metres; ++i) {
    core::PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() < 0.2) continue;  // leave some channels unusable
      const int dbm = -120 + static_cast<int>(rng.uniform(0.0, 100.0));
      pv.set(c, static_cast<float>(dbm));
    }
    core::GeoSample geo;
    geo.time_s = static_cast<double>(i) * 0.25;  // centisecond grid
    geo.heading_rad = 0.0;
    t.append(geo, std::move(pv));
  }
  return t;
}

void expect_equal(const core::ContextTrajectory& a,
                  const core::ContextTrajectory& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.channels(), b.channels());
  ASSERT_EQ(a.first_metre(), b.first_metre());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::PowerVector& pa = a.power(i);
    const core::PowerVector& pb = b.power(i);
    for (std::size_t c = 0; c < a.channels(); ++c) {
      ASSERT_EQ(pa.usable(c), pb.usable(c)) << "metre " << i << " ch " << c;
      if (pa.usable(c)) {
        ASSERT_EQ(pa.at(c), pb.at(c)) << "metre " << i << " ch " << c;
      }
    }
    EXPECT_NEAR(a.geo(i).time_s, b.geo(i).time_s, 0.005 + 1e-9);
    EXPECT_NEAR(a.geo(i).heading_rad, b.geo(i).heading_rad, 1e-3);
  }
}

TEST(CodecRoundTrip, GridValuesSurviveExactly) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto t = grid_trajectory(seed, 64, 48);
    const auto bytes = TrajectoryCodec::encode(t);
    EXPECT_EQ(bytes.size(), TrajectoryCodec::encoded_size(64, 48));
    const auto back = TrajectoryCodec::decode(bytes);
    expect_equal(t, back);
  }
}

TEST(CodecRoundTrip, NonZeroFirstMetreSurvives) {
  const auto t = grid_trajectory(4, 32, 20, /*first_metre=*/777);
  const auto back = TrajectoryCodec::decode(TrajectoryCodec::encode(t));
  EXPECT_EQ(back.first_metre(), 777u);
  expect_equal(t, back);
}

TEST(CodecRoundTrip, EmptyAndSingleMetre) {
  const auto empty = grid_trajectory(5, 0, 10);
  expect_equal(empty, TrajectoryCodec::decode(TrajectoryCodec::encode(empty)));
  const auto one = grid_trajectory(6, 1, 10);
  expect_equal(one, TrajectoryCodec::decode(TrajectoryCodec::encode(one)));
}

TEST(CodecRoundTrip, TailEncodingDecodesToTheTail) {
  const auto t = grid_trajectory(7, 50, 16);
  const auto tail_bytes = TrajectoryCodec::encode_tail(t, 30);
  const auto tail = TrajectoryCodec::decode(tail_bytes);
  EXPECT_EQ(tail.first_metre(), 30u);
  ASSERT_EQ(tail.size(), 20u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const core::PowerVector& pa = t.power(30 + i);
    const core::PowerVector& pb = tail.power(i);
    for (std::size_t c = 0; c < t.channels(); ++c) {
      ASSERT_EQ(pa.usable(c), pb.usable(c));
      if (pa.usable(c)) {
        ASSERT_EQ(pa.at(c), pb.at(c));
      }
    }
  }
}

TEST(CodecRoundTrip, NonFiniteValuesNeverReachAnIntegerConversion) {
  // A usable NaN reading used to be converted to the u8 RSSI byte, which
  // is undefined behaviour (UBSan: "nan is outside the range of
  // representable values of type 'unsigned char'"). Non-finite readings
  // now go as missing, a non-finite heading as 0, and a time outside the
  // u32 centisecond field is clamped into it.
  const float nanf = std::numeric_limits<float>::quiet_NaN();
  const float inff = std::numeric_limits<float>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const float readings[] = {nanf, inff, -inff, nanf};
  const double times[] = {1.5, inf, nan, 1e12};
  const double headings[] = {0.5, nan, inf, -inf};
  core::ContextTrajectory t(6, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    core::PowerVector pv(6);
    pv.set(0, -70.0f);
    pv.set(1, readings[i]);
    pv.set(2, readings[i], core::ChannelState::kInterpolated);
    pv.set(3, -61.0f, core::ChannelState::kInterpolated);
    t.append(core::GeoSample{headings[i], times[i]}, std::move(pv));
  }
  const auto back = TrajectoryCodec::decode(TrajectoryCodec::encode(t));
  ASSERT_EQ(back.size(), 4u);
  const double max_time_s = 4294967295.0 / 100.0;
  const double want_times[] = {1.5, max_time_s, 0.0, max_time_s};
  for (std::size_t i = 0; i < 4; ++i) {
    const core::PowerVector& pv = back.power(i);
    EXPECT_EQ(pv.state(0), core::ChannelState::kMeasured) << i;
    EXPECT_EQ(pv.at(0), -70.0f) << i;
    EXPECT_FALSE(pv.usable(1)) << i;
    EXPECT_FALSE(pv.usable(2)) << i;
    EXPECT_EQ(pv.state(3), core::ChannelState::kInterpolated) << i;
    EXPECT_EQ(pv.at(3), -61.0f) << i;
    EXPECT_FALSE(pv.usable(4)) << i;
    EXPECT_EQ(back.geo(i).time_s, want_times[i]) << i;
    if (i > 0) {
      EXPECT_EQ(back.geo(i).heading_rad, 0.0) << i;
    }
  }
  EXPECT_NEAR(back.geo(0).heading_rad, 0.5, 1e-3);
}

/// Decoder survival: decode() must either return or throw
/// std::invalid_argument. Returns true when the buffer decoded cleanly.
bool survives(const std::vector<std::uint8_t>& bytes) {
  try {
    const auto t = TrajectoryCodec::decode(bytes);
    // Touch the result so a silently corrupt trajectory would be noticed
    // by the sanitizer lane.
    volatile std::size_t sink = t.size() + t.channels();
    (void)sink;
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

TEST(CodecFuzz, RandomBuffersNeverCrashTheDecoder) {
  util::Rng rng(0xF422);
  std::size_t clean = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform(0.0, 600.0));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
    }
    if (survives(bytes)) ++clean;
  }
  // Random bytes essentially never carry the magic + consistent sizes.
  EXPECT_EQ(clean, 0u);
}

TEST(CodecFuzz, TruncationsNeverCrashTheDecoder) {
  const auto t = grid_trajectory(8, 40, 24);
  const auto full = TrajectoryCodec::encode(t);
  util::Rng rng(0xF423);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t keep =
        static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(full.size())));
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(keep));
    EXPECT_FALSE(survives(cut)) << "truncation to " << keep << " bytes";
  }
  // And appending junk must also be rejected (size mismatch).
  std::vector<std::uint8_t> longer = full;
  longer.push_back(0xAB);
  EXPECT_FALSE(survives(longer));
}

TEST(CodecFuzz, BitFlipsNeverCrashTheDecoder) {
  const auto t = grid_trajectory(9, 40, 24);
  const auto full = TrajectoryCodec::encode(t);
  util::Rng rng(0xF424);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> mutated = full;
    const int flips = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(mutated.size())));
      const int bit = static_cast<int>(rng.uniform(0.0, 8.0));
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
    // A flip in the payload may still decode (values are raw bytes); a flip
    // in the header must throw. Either way: no crash, no UB.
    (void)survives(mutated);
  }
}

}  // namespace
}  // namespace rups::v2v
