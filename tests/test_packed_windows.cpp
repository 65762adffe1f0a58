#include "core/packed.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "core/syn_seeker.hpp"
#include "support/road_field.hpp"
#include "util/rng.hpp"

// Pins the packed-window reuse contract: a PackedContext kept in sync
// incrementally (appends, retro-fills, evictions) must be byte-equivalent
// to packing the trajectory from scratch, and a SYN search fed pre-synced
// packs must return BIT-IDENTICAL results to the pack-free path. The
// engine's pack-reuse fast path and SynCache's tracking mode both stand on
// these two properties.

namespace rups::core {
namespace {

using test::drive;
using test::road_rssi;
using test::small_config;


void append_one(ContextTrajectory& t, std::uint64_t road_seed,
                std::int64_t road_start, util::Rng& rng) {
  PowerVector pv(t.channels());
  const auto metre = road_start + static_cast<std::int64_t>(t.first_metre()) +
                     static_cast<std::int64_t>(t.size());
  for (std::size_t c = 0; c < t.channels(); ++c) {
    pv.set(c, road_rssi(road_seed, metre, c) +
                  static_cast<float>(rng.gaussian(0.0, 0.5)));
  }
  t.append(GeoSample{}, std::move(pv));
}

/// Element-wise equality of a pack against the trajectory it claims to
/// mirror (x = value + shift, x2 = x*x, v = usability mask).
void expect_pack_matches(const PackedContext& pack,
                         const ContextTrajectory& t) {
  ASSERT_TRUE(pack.in_sync_with(t));
  const PackedSpan s = pack.span();
  ASSERT_EQ(s.metres, t.size());
  ASSERT_EQ(s.channels, t.channels());
  for (std::size_t c = 0; c < s.channels; ++c) {
    for (std::size_t i = 0; i < s.metres; ++i) {
      const PowerVector& pv = t.power(i);
      const float x = s.x[c * s.stride + i];
      const float v = s.v[c * s.stride + i];
      if (c < pv.channels() && pv.usable(c)) {
        const float want = pv.at(c) + kPackShiftDbm;
        EXPECT_EQ(x, want) << "channel " << c << " metre " << i;
        EXPECT_EQ(s.x2[c * s.stride + i], want * want);
        EXPECT_EQ(v, 1.0f);
      } else {
        EXPECT_EQ(x, 0.0f);
        EXPECT_EQ(v, 0.0f);
      }
    }
  }
}

TEST(PackedContext, IncrementalAppendMatchesFreshPack) {
  auto t = drive(1, 0, 120, 24, 0.5, 7, {.capacity = 400});
  PackedContext incremental;
  incremental.sync(t);
  expect_pack_matches(incremental, t);

  util::Rng rng(99);
  for (int step = 0; step < 40; ++step) {
    append_one(t, 1, 0, rng);
    incremental.sync(t);
    PackedContext fresh;
    fresh.sync(t);
    expect_pack_matches(incremental, t);
    expect_pack_matches(fresh, t);
  }
}

TEST(PackedContext, RetroFillWithinVolatileSuffixIsRepacked) {
  auto t = drive(2, 0, 100, 16, 0.5, 11, {.capacity = 200});
  PackedContext pack;
  pack.sync(t);

  // Simulate the binder's retro-interpolation: rewrite RSSI in the last
  // metres (within the volatile suffix), then sync again.
  for (std::size_t back = 1; back <= 30; ++back) {
    PowerVector& pv = t.mutable_power(t.size() - back);
    pv.set(3, -70.0f - static_cast<float>(back));
  }
  pack.sync(t);
  expect_pack_matches(pack, t);
}

TEST(PackedContext, EvictionAndCapacityWrapStayInSync) {
  const std::size_t capacity = 150;
  auto t = drive(3, 0, 100, 12, 0.5, 13, {.capacity = capacity});
  PackedContext pack;
  pack.sync(t);

  // Drive far past capacity so the ring evicts from the front repeatedly.
  util::Rng rng(5);
  for (int step = 0; step < 200; ++step) {
    append_one(t, 3, 0, rng);
    pack.sync(t);
    if (step % 50 == 0) expect_pack_matches(pack, t);
  }
  expect_pack_matches(pack, t);
  EXPECT_GT(t.first_metre(), 0u);
}

TEST(PackedContext, WidthChangeForcesConsistentRepack) {
  auto t16 = drive(4, 0, 80, 16, 0.5, 17, {.capacity = 200});
  auto t24 = drive(4, 0, 80, 24, 0.5, 17, {.capacity = 200});
  PackedContext pack;
  pack.sync(t16);
  expect_pack_matches(pack, t16);
  pack.sync(t24);  // channel-count change: full repack
  expect_pack_matches(pack, t24);
  EXPECT_FALSE(pack.in_sync_with(t16));
}

TEST(PackedSearch, PackedAndUnpackedSearchesAreBitIdentical) {
  // The packed (all-channel, row-mapped) and unpacked (per-query subset
  // pack) layouts must score every window identically — the determinism
  // guarantees of FleetEngine/SynCache rest on this.
  const auto a = drive(21, 0, 260, 30, 0.5, 31, {.capacity = 400});
  const auto b = drive(21, 45, 260, 30, 0.5, 32, {.capacity = 400});
  SynConfig cfg = small_config();
  cfg.syn_points = 3;
  cfg.syn_segment_spacing_m = 30;
  const SynSeeker seeker(cfg);

  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);

  const auto plain = seeker.find(a, b);
  const auto packed = seeker.find(a, b, &pa, &pb);
  ASSERT_EQ(plain.size(), packed.size());
  ASSERT_FALSE(plain.empty());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].index_a, packed[i].index_a);
    EXPECT_EQ(plain[i].index_b, packed[i].index_b);
    EXPECT_EQ(plain[i].window_m, packed[i].window_m);
    EXPECT_EQ(plain[i].correlation, packed[i].correlation);  // bit-exact
  }

  // Mixed: only one side packed must also match.
  const auto mixed_a = seeker.find(a, b, &pa, nullptr);
  const auto mixed_b = seeker.find(a, b, nullptr, &pb);
  ASSERT_EQ(mixed_a.size(), plain.size());
  ASSERT_EQ(mixed_b.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].correlation, mixed_a[i].correlation);
    EXPECT_EQ(plain[i].correlation, mixed_b[i].correlation);
  }
}

TEST(PackedSearch, StalePackIsIgnoredNotTrusted) {
  auto a = drive(22, 0, 200, 24, 0.5, 41, {.capacity = 400});
  const auto b = drive(22, 30, 200, 24, 0.5, 42, {.capacity = 400});
  const SynSeeker seeker(small_config());

  PackedContext stale;
  stale.sync(a);
  util::Rng rng(6);
  append_one(a, 22, 0, rng);  // grow a: the pack is now out of date

  const auto with_stale = seeker.find_one(a, b, 0, &stale, nullptr);
  const auto without = seeker.find_one(a, b);
  ASSERT_EQ(with_stale.has_value(), without.has_value());
  if (with_stale.has_value()) {
    EXPECT_EQ(with_stale->index_a, without->index_a);
    EXPECT_EQ(with_stale->index_b, without->index_b);
    EXPECT_EQ(with_stale->correlation, without->correlation);
  }
}

TEST(PackedSearch, EngineGrowingContextMatchesScratchSeeker) {
  // The RupsEngine keeps one PackedContext across queries and extends it by
  // the metres driven in between; every query must still equal a scratch
  // SynSeeker run on the same contexts (the pack-reuse fix this pins).
  const std::size_t channels = 24;
  auto local = drive(23, 0, 180, channels, 0.5, 51, {.capacity = 400});
  const auto neighbour =
      drive(23, 35, 220, channels, 0.5, 52, {.capacity = 400});

  SynConfig cfg = small_config();
  PackedContext pack;
  const SynSeeker seeker(cfg);
  util::Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    for (int m = 0; m < 3; ++m) append_one(local, 23, 0, rng);
    pack.sync(local);  // same call pattern as RupsEngine::find_syn_points
    const auto reused = seeker.find(local, neighbour, &pack, nullptr);
    const auto scratch = SynSeeker(cfg).find(local, neighbour);
    ASSERT_EQ(reused.size(), scratch.size()) << "round " << round;
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused[i].index_a, scratch[i].index_a);
      EXPECT_EQ(reused[i].index_b, scratch[i].index_b);
      EXPECT_EQ(reused[i].correlation, scratch[i].correlation);
    }
  }
}

}  // namespace
}  // namespace rups::core
