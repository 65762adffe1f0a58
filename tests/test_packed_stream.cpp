// Per-metre streaming stress of PackedContext::sync: retro-fill (binder
// back-filling interpolated channels behind the head) interleaved with
// append-driven front eviction, one metre at a time — the §17 ingest
// cadence. At every step the incrementally-maintained pack must be
// bit-identical to a cold pack built from scratch; a stale volatile-suffix
// repack or a mis-advanced eviction base shows up as a float mismatch.
// Runs under ASan in the verify matrix, so buffer arithmetic bugs in the
// compaction path fault loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "core/packed.hpp"
#include "core/types.hpp"
#include "util/hash_noise.hpp"

namespace rups {
namespace {

constexpr std::size_t kChannels = 16;
constexpr std::size_t kCapacity = 64;
/// Binder's default retro-fill reach (max_interpolation_gap_m).
constexpr std::size_t kRetroReach = 40;

[[nodiscard]] float value_at(std::uint64_t metre, std::size_t channel,
                             std::uint32_t salt) {
  util::HashNoise noise(0x5EEDULL + salt);
  return -95.0f + 25.0f * static_cast<float>(noise.uniform(
                              static_cast<std::int64_t>(metre * 131 + channel)));
}

/// Append one metre with a deterministic subset of channels measured;
/// `salt` picks another road's values.
void append_metre(core::ContextTrajectory& t, std::uint32_t salt = 0) {
  const std::uint64_t metre = t.first_metre() + t.size();
  core::PowerVector power(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    // Leave ~1/3 of slots missing so retro-fill has holes to plug.
    if ((metre + c) % 3 == 0) continue;
    power.set(c, value_at(metre, c, salt * 3),
              core::ChannelState::kMeasured);
  }
  t.append(core::GeoSample{0.0, static_cast<double>(metre)},
           std::move(power));
}

/// Binder-style retro-fill: plug missing slots with interpolated values on
/// entries up to kRetroReach behind the newest metre.
void retro_fill(core::ContextTrajectory& t, std::uint64_t step) {
  if (t.empty()) return;
  const std::size_t reach = std::min(t.size(), kRetroReach);
  for (std::size_t back = 1; back <= reach; ++back) {
    const std::size_t i = t.size() - back;
    core::PowerVector& power = t.mutable_power(i);
    for (std::size_t c = 0; c < kChannels; ++c) {
      if (power.usable(c)) continue;
      // Fill one hole per (step, entry) so changes KEEP arriving on old
      // columns long after they were first packed.
      if ((step + back + c) % 7 != 0) continue;
      power.set(c, value_at(t.first_metre() + i, c, 1),
                core::ChannelState::kInterpolated);
      break;
    }
  }
}

/// Bitwise equality of an incremental and a cold pack of `t`: equal v bits
/// carry the cold pack's exact 0.0f/1.0f validity over.
void expect_pack_matches_cold(const core::PackedContext& incremental,
                              const core::ContextTrajectory& t,
                              std::uint64_t step) {
  core::PackedContext cold;
  (void)cold.sync(t);
  const core::PackedSpan a = incremental.span();
  const core::PackedSpan b = cold.span();
  ASSERT_EQ(a.metres, b.metres) << "step " << step;
  ASSERT_EQ(a.channels, b.channels) << "step " << step;
  ASSERT_EQ(incremental.first_metre(), cold.first_metre()) << "step " << step;
  for (std::size_t c = 0; c < a.channels; ++c) {
    const float* ax = a.x + c * a.stride;
    const float* bx = b.x + c * b.stride;
    const float* av = a.v + c * a.stride;
    const float* bv = b.v + c * b.stride;
    for (std::size_t m = 0; m < a.metres; ++m) {
      // Bitwise comparison: a stale column is usually a SMALL value drift,
      // exactly what tolerance-based checks miss.
      ASSERT_EQ(std::memcmp(&ax[m], &bx[m], sizeof(float)), 0)
          << "x stale at step " << step << " ch " << c << " m " << m;
      ASSERT_EQ(std::memcmp(&av[m], &bv[m], sizeof(float)), 0)
          << "v stale at step " << step << " ch " << c << " m " << m;
    }
  }
}

TEST(PackedStream, PerMetreRetroFillAndEvictionStayBitIdenticalToColdPack) {
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;

  // 600 metres: ~64 metres of pure growth, then steady-state eviction with
  // retro-fill mutating the packed tail EVERY metre.
  for (std::uint64_t step = 0; step < 600; ++step) {
    append_metre(t);
    retro_fill(t, step);
    (void)pack.sync(t);
    ASSERT_TRUE(pack.in_sync_with(t)) << "step " << step;
    expect_pack_matches_cold(pack, t, step);
  }
}

TEST(PackedStream, BurstGrowthBetweenSyncs) {
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  util::HashNoise noise(0xB00);

  // Variable ingest cadence: 1..5 metres land between syncs (a vehicle
  // outrunning its telemetry loop), retro-fill between every append.
  std::uint64_t step = 0;
  while (step < 500) {
    const auto burst =
        1 + static_cast<std::size_t>(
                noise.uniform(static_cast<std::int64_t>(step)) * 4.0);
    for (std::size_t b = 0; b < burst; ++b) {
      append_metre(t);
      retro_fill(t, step + b);
    }
    step += burst;
    (void)pack.sync(t);
    expect_pack_matches_cold(pack, t, step);
  }
}

TEST(PackedStream, RetroFillDeeperThanSuffixForcesDetectableRepack) {
  // The incremental contract: sync()'s volatile suffix must cover the
  // binder's retro-fill reach. Verify the guard holds exactly at the
  // default reach (40 < kDefaultVolatileSuffixM == 48) even when eviction
  // happens on the same sync.
  static_assert(kRetroReach < core::PackedContext::kDefaultVolatileSuffixM,
                "volatile suffix must cover binder retro-fill");
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  for (std::uint64_t step = 0; step < 200; ++step) {
    append_metre(t);
    if (t.size() > kRetroReach) {
      // Mutate the entry EXACTLY at the reach boundary every step.
      core::PowerVector& power =
          t.mutable_power(t.size() - kRetroReach);
      power.set(static_cast<std::size_t>(step) % kChannels,
                value_at(step, step % kChannels, 2),
                core::ChannelState::kInterpolated);
    }
    (void)pack.sync(t);
    expect_pack_matches_cold(pack, t, step);
  }
}

TEST(PackedStream, SameShapeTrajectoriesInTurnEachPackCold) {
  // Two trajectories of one width, capacity and odometer range but other
  // values: a pack fed one and then the other must hold the second's
  // values, not the first's under the second's shape.
  core::ContextTrajectory first(kChannels, kCapacity);
  core::ContextTrajectory second(kChannels, kCapacity);
  for (int i = 0; i < 60; ++i) {
    append_metre(first);
    append_metre(second, 1);
  }
  core::PackedContext pack;
  (void)pack.sync(first);
  EXPECT_FALSE(pack.in_sync_with(second));
  EXPECT_EQ(pack.sync(second), second.size());
  expect_pack_matches_cold(pack, second, 0);
  EXPECT_FALSE(pack.in_sync_with(first));
  (void)pack.sync(first);
  expect_pack_matches_cold(pack, first, 1);
}

TEST(PackedStream, AppendOnlySyncPacksExactlyTheAppendedMetres) {
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  for (int i = 0; i < 10; ++i) append_metre(t);
  EXPECT_EQ(pack.sync(t), 10u);
  EXPECT_EQ(pack.sync(t), 0u);  // nothing changed
  // Growth, then steady-state eviction: only the new metres are packed.
  for (std::uint64_t step = 0; step < 200; ++step) {
    const std::size_t burst = 1 + step % 3;
    for (std::size_t b = 0; b < burst; ++b) append_metre(t);
    EXPECT_EQ(pack.sync(t), burst) << "step " << step;
    expect_pack_matches_cold(pack, t, step);
  }
}

TEST(PackedStream, EditsAndReplacementsStillForceARepack) {
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  for (int i = 0; i < 100; ++i) append_metre(t);
  (void)pack.sync(t);

  // An in-place write re-packs the volatile suffix.
  t.mutable_power(t.size() - 5).set(0, -33.0f);
  EXPECT_FALSE(pack.in_sync_with(t));
  EXPECT_EQ(pack.sync(t, 8), 8u);
  expect_pack_matches_cold(pack, t, 0);

  // Copy and move assignment replace the contents: a full re-pack, even
  // when the new contents have the packed range's exact shape.
  core::ContextTrajectory other(kChannels, kCapacity);
  for (int i = 0; i < 100; ++i) append_metre(other, 1);
  t = other;
  EXPECT_FALSE(pack.in_sync_with(t));
  EXPECT_EQ(pack.sync(t), t.size());
  expect_pack_matches_cold(pack, t, 1);
  core::ContextTrajectory third(kChannels, kCapacity);
  for (int i = 0; i < 100; ++i) append_metre(third, 2);
  t = std::move(third);
  EXPECT_EQ(pack.sync(t), t.size());
  expect_pack_matches_cold(pack, t, 2);
}

}  // namespace
}  // namespace rups
