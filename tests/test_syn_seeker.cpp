#include "core/syn_seeker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/fleet.hpp"
#include "core/packed.hpp"
#include "core/resolver.hpp"
#include "core/syn_cache.hpp"
#include "service/matcher_service.hpp"
#include "support/road_field.hpp"

namespace rups::core {
namespace {

using test::drive;
using test::road_rssi;
using test::small_config;

TEST(SynSeeker, FindsExactOverlapOffset) {
  const auto a = drive(1, 0, 200, 30, 0.5, 10);
  const auto b = drive(1, 50, 200, 30, 0.5, 11);
  const SynSeeker seeker(small_config());
  const auto syn = seeker.find_one(a, b);
  ASSERT_TRUE(syn.has_value());
  // Matched windows must reference the same road metres:
  // road(a)=index_a, road(b)=50+index_b  =>  index_a - index_b = 50.
  EXPECT_NEAR(static_cast<double>(syn->index_a) -
                  static_cast<double>(syn->index_b),
              50.0, 2.0);
  EXPECT_GE(syn->correlation, 1.2);
}

TEST(SynSeeker, ResolvedDistanceMatchesGroundTruth) {
  const auto a = drive(2, 0, 200, 30, 0.5, 10);
  const auto b = drive(2, 80, 200, 30, 0.5, 11);  // b is 80 m ahead
  const SynSeeker seeker(small_config());
  const auto syn = seeker.find_one(a, b);
  ASSERT_TRUE(syn.has_value());
  EXPECT_NEAR(resolve_distance(a, b, *syn), -80.0, 2.5);
  EXPECT_NEAR(resolve_distance(b, a, SynPoint{syn->index_b, syn->index_a,
                                              syn->window_m,
                                              syn->correlation}),
              80.0, 2.5);
}

TEST(SynSeeker, UnrelatedRoadsNoSyn) {
  const auto a = drive(3, 0, 200, 30, 0.5, 10);
  const auto b = drive(999, 0, 200, 30, 0.5, 11);
  const SynSeeker seeker(small_config());
  EXPECT_FALSE(seeker.find_one(a, b).has_value());
  EXPECT_TRUE(seeker.find(a, b).empty());
}

TEST(SynSeeker, EmptyTrajectoriesNoSyn) {
  ContextTrajectory empty(30, 100);
  const auto a = drive(4, 0, 150, 30, 0.5, 10);
  const SynSeeker seeker(small_config());
  EXPECT_FALSE(seeker.find_one(a, empty).has_value());
  EXPECT_FALSE(seeker.find_one(empty, a).has_value());
}

TEST(SynSeeker, NoisyMeasurementsStillMatch) {
  const auto a = drive(5, 0, 200, 30, 2.5, 10);
  const auto b = drive(5, 30, 200, 30, 2.5, 11);
  const SynSeeker seeker(small_config());
  const auto syn = seeker.find_one(a, b);
  ASSERT_TRUE(syn.has_value());
  EXPECT_NEAR(static_cast<double>(syn->index_a) -
                  static_cast<double>(syn->index_b),
              30.0, 3.0);
}

TEST(SynSeeker, AdaptiveWindowHandlesShortContext) {
  // Vehicle b just turned onto the road: only 25 m of context (< window 40).
  const auto a = drive(6, 0, 200, 30, 0.5, 10);
  const auto b = drive(6, 100, 25, 30, 0.5, 11);
  SynConfig cfg = small_config();
  cfg.adaptive_window = true;
  const SynSeeker seeker(cfg);
  const auto syn = seeker.find_one(a, b);
  ASSERT_TRUE(syn.has_value());
  EXPECT_EQ(syn->window_m, 25u);
  EXPECT_NEAR(static_cast<double>(syn->index_a) -
                  static_cast<double>(syn->index_b),
              100.0, 3.0);
}

TEST(SynSeeker, AdaptiveWindowDisabledRefusesShortContext) {
  const auto a = drive(6, 0, 200, 30, 0.5, 10);
  const auto b = drive(6, 100, 25, 30, 0.5, 11);
  SynConfig cfg = small_config();
  cfg.adaptive_window = false;
  const SynSeeker seeker(cfg);
  EXPECT_FALSE(seeker.find_one(a, b).has_value());
}

TEST(SynSeeker, BelowMinWindowRefused) {
  const auto a = drive(7, 0, 200, 30, 0.5, 10);
  const auto b = drive(7, 100, 6, 30, 0.5, 11);  // < min_window_m (10)
  const SynSeeker seeker(small_config());
  EXPECT_FALSE(seeker.find_one(a, b).has_value());
}

TEST(SynSeeker, MultiSynReturnsSeveralPoints) {
  const auto a = drive(8, 0, 300, 30, 0.8, 10);
  const auto b = drive(8, 40, 300, 30, 0.8, 11);
  SynConfig cfg = small_config();
  cfg.syn_points = 5;
  cfg.syn_segment_spacing_m = 25;
  const SynSeeker seeker(cfg);
  const auto syns = seeker.find(a, b);
  EXPECT_GE(syns.size(), 3u);
  // Sorted by correlation, best first.
  for (std::size_t i = 1; i < syns.size(); ++i) {
    EXPECT_GE(syns[i - 1].correlation, syns[i].correlation);
  }
  // Every SYN point implies roughly the same relative distance.
  for (const auto& s : syns) {
    EXPECT_NEAR(resolve_distance(a, b, s), -40.0, 3.0);
  }
}

/// First-best over every slide position of one pass, scored one position
/// at a time by the scalar kernel.
SynSeeker::Candidate per_position_best(const PackedView& fixed,
                                       std::size_t fixed_start,
                                       const PackedView& sliding,
                                       std::size_t window,
                                       const TrajectoryCorrelationConfig& cc) {
  SynSeeker::Candidate best;
  for (std::size_t pos = 0; pos + window <= sliding.span.metres; ++pos) {
    const double r =
        packed_correlation(fixed, fixed_start, sliding, pos, window, cc);
    if (!best.valid || r > best.correlation) best = {r, pos, true};
  }
  return best;
}

/// What find() must return, from per-position scoring of every pass.
std::vector<SynPoint> per_position_find(const SynSeeker& seeker,
                                        const ContextTrajectory& a,
                                        const ContextTrajectory& b) {
  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);
  const SynConfig& cfg = seeker.config();
  std::vector<SynPoint> out;
  SynSeeker::SeekScratch ws;
  for (std::size_t k = 0; k < cfg.syn_points; ++k) {
    seeker.plan_into(a, b, k * cfg.syn_segment_spacing_m, ws);
    const SynSeeker::SeekPlan& p = ws.plan;
    if (p.reject != nullptr) continue;
    const auto on_b =
        per_position_best({pa.span(), p.channels_a}, p.a_start,
                          {pb.span(), p.channels_a}, p.window, cfg.correlation);
    const auto on_a =
        per_position_best({pb.span(), p.channels_b}, p.b_start,
                          {pa.span(), p.channels_b}, p.window, cfg.correlation);
    if (const auto syn = SynSeeker::accept(p, on_b, on_a)) out.push_back(*syn);
  }
  SynSeeker::sort_best_first(out);
  return out;
}

void expect_same_points(const std::vector<SynPoint>& want,
                        const std::vector<SynPoint>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index_a, got[i].index_a) << i;
    EXPECT_EQ(want[i].index_b, got[i].index_b) << i;
    EXPECT_EQ(want[i].window_m, got[i].window_m) << i;
    EXPECT_EQ(std::memcmp(&want[i].correlation, &got[i].correlation,
                          sizeof(double)),
              0)
        << i << ": want " << want[i].correlation << " got "
        << got[i].correlation;
  }
}

TEST(SynSeeker, FullyUsableContextsMatchPerPositionScoring) {
  // Fully usable contexts run the kernel's usable-row loop in every block:
  // find() (with and without caller packs) and a SynCache tracking band
  // must still pick the per-position scan's points, bit for bit.
  SynConfig cfg = small_config();
  cfg.syn_points = 3;
  const SynSeeker seeker(cfg);
  const auto a = drive(5, 0, 300, 30, 0.5, 20);
  const auto b = drive(5, 70, 300, 30, 0.5, 21);
  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);
  const auto want = per_position_find(seeker, a, b);
  ASSERT_EQ(want.size(), cfg.syn_points);
  expect_same_points(want, seeker.find(a, b, &pa, &pb));
  expect_same_points(want, seeker.find(a, b));

  // Both cars drive on 6 m: the cache re-verifies its ±12 m bands.
  SynCache cache(cfg);
  std::vector<SynPoint> got;
  cache.find_into(a, b, &pa, nullptr, got);
  expect_same_points(want, got);
  const auto a2 = drive(5, 0, 306, 30, 0.5, 20);
  const auto b2 = drive(5, 70, 306, 30, 0.5, 21);
  PackedContext pa2;
  pa2.sync(a2);
  cache.find_into(a2, b2, &pa2, nullptr, got);
  EXPECT_EQ(cache.stats().tracking_hits, cfg.syn_points);
  expect_same_points(per_position_find(seeker, a2, b2), got);
}

TEST(SynCache, TrackingSurvivesAnyFirstMetre) {
  // A V2V header sets the neighbour's first_metre() to any u64. Here the
  // neighbour is 60 m ahead on the same road, rebased to 2^63: the lock
  // and the band predictions must stay defined (the asan-ubsan lane
  // reports any signed overflow), and the next round must track.
  const SynConfig cfg = small_config();
  constexpr std::uint64_t kFar = std::uint64_t{1} << 63;
  SynCache cache(cfg);
  std::vector<SynPoint> got;
  for (const std::size_t len : {200, 206}) {
    SCOPED_TRACE(len);
    const auto a = drive(6, 0, len, 30, 0.5, 30);
    auto b = drive(6, 60, len, 30, 0.5, 31);
    b.rebase(kFar);
    PackedContext pa;
    pa.sync(a);
    cache.find_into(a, b, &pa, nullptr, got);
    ASSERT_FALSE(got.empty());
    expect_same_points(SynSeeker(cfg).find(a, b), got);
  }
  // The first round searched in full and locked; the second tracked.
  EXPECT_EQ(cache.stats().full_searches, 1u);
  EXPECT_EQ(cache.stats().tracking_hits, 1u);
}

TEST(SynSeeker, UnrunnableConfigsAreRejectedAtConstruction) {
  // Every seek scans every metre, so stride_m is pinned to 1 and
  // coarse_stride_m to off (0 or 1). Also a quantized window past the
  // int32 sum bound, which the kernel would otherwise only refuse in the
  // middle of a batch.
  std::vector<SynConfig> unrunnable;
  for (const std::size_t stride : {0, 2, 4}) {
    unrunnable.push_back(small_config());
    unrunnable.back().stride_m = stride;
  }
  for (const std::size_t coarse : {2, 8}) {
    unrunnable.push_back(small_config());
    unrunnable.back().coarse_stride_m = coarse;
  }
  SynConfig wide_quantized = small_config();
  wide_quantized.precision = KernelPrecision::kInt16;
  wide_quantized.window_m = kQuantMaxWindowM + 53;
  unrunnable.push_back(wide_quantized);
  for (const SynConfig& cfg : unrunnable) {
    EXPECT_THROW(SynSeeker{cfg}, std::invalid_argument);
    // FleetEngine builds its seekers lazily inside a batch, and
    // MatcherService its FleetEngines at registration, so both reject the
    // config up front.
    FleetConfig fleet;
    fleet.rups.syn = cfg;
    EXPECT_THROW(FleetEngine{fleet}, std::invalid_argument);
    service::ServiceConfig service;
    service.fleet = fleet;
    EXPECT_THROW(service::MatcherService{service}, std::invalid_argument);
  }
  SynConfig coarse_off = small_config();
  coarse_off.coarse_stride_m = 1;
  EXPECT_NO_THROW(SynSeeker{coarse_off});
  wide_quantized.precision = KernelPrecision::kFloat32;
  EXPECT_NO_THROW(SynSeeker{wide_quantized});
}

/// Trajectory that drives road `road1` for `len1` metres, turns 90
/// degrees, then drives road `road2` for `len2` metres.
ContextTrajectory drive_with_turn(std::uint64_t road1, std::size_t len1,
                                  std::uint64_t road2, std::size_t len2,
                                  std::size_t channels,
                                  std::uint64_t noise_seed) {
  ContextTrajectory traj(channels, len1 + len2);
  util::Rng rng(noise_seed);
  for (std::size_t i = 0; i < len1 + len2; ++i) {
    const bool second = i >= len1;
    const std::uint64_t road = second ? road2 : road1;
    const std::int64_t metre =
        second ? static_cast<std::int64_t>(i - len1)
               : static_cast<std::int64_t>(i);
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      pv.set(c, road_rssi(road, metre, c) +
                    static_cast<float>(rng.gaussian(0.0, 0.5)));
    }
    traj.append(GeoSample{second ? 1.5707963 : 0.0, static_cast<double>(i)},
                std::move(pv));
  }
  return traj;
}

TEST(SynSeeker, RespectTurnsUsesOnlyPostTurnTail) {
  // Vehicle A: 150 m on road 100, turn, 25 m on road 200. Vehicle B has
  // been on road 200 all along. A fixed 40 m window spans the turn and
  // mixes two roads' fingerprints; respecting turns shrinks the window to
  // the 25 m post-turn tail which matches cleanly.
  const auto a = drive_with_turn(100, 150, 200, 25, 30, 10);
  const auto b = drive(200, 0, 200, 30, 0.5, 11);

  SynConfig cfg = small_config();
  cfg.respect_turns = true;
  cfg.adaptive_window = true;
  const auto syn = SynSeeker(cfg).find_one(a, b);
  ASSERT_TRUE(syn.has_value());
  EXPECT_LE(syn->window_m, 25u);
  // A's post-turn tail covers road-200 metres [0, 25); the matched window
  // on B must sit at the same road metres.
  EXPECT_LE(syn->index_b, 3u);
}

TEST(SynSeeker, RespectTurnsRefusesWhenTailTooShort) {
  const auto a = drive_with_turn(100, 170, 200, 5, 30, 10);  // 5 m tail
  const auto b = drive(200, 0, 200, 30, 0.5, 11);
  SynConfig cfg = small_config();
  cfg.respect_turns = true;
  EXPECT_FALSE(SynSeeker(cfg).find_one(a, b).has_value());
}

TEST(SynSeeker, AcceptRuleTiesThresholdAndRejections) {
  // The accept rule shared by the full search and SynCache's band, on a
  // plan whose fixed windows start at a = 70 and b = 90.
  SynSeeker::SeekPlan plan;
  plan.window = 40;
  plan.threshold = 1.2;
  plan.a_start = 70;
  plan.b_start = 90;
  using C = SynSeeker::Candidate;
  const auto accept = [&plan](C on_b, C on_a) {
    return SynSeeker::accept(plan, on_b, on_a);
  };

  // A tie goes to pass 1: A's window (index_a = a_start) at B's position.
  const auto tie = accept({1.5, 12, true}, {1.5, 34, true});
  ASSERT_TRUE(tie.has_value());
  EXPECT_EQ(tie->index_a, 70u);
  EXPECT_EQ(tie->index_b, 12u);
  EXPECT_EQ(tie->window_m, 40u);
  EXPECT_EQ(tie->correlation, 1.5);
  // A strictly greater pass 2 wins: B's window (index_b = b_start).
  const auto two = accept({1.5, 12, true}, {1.5000001, 34, true});
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->index_a, 34u);
  EXPECT_EQ(two->index_b, 90u);
  EXPECT_EQ(two->correlation, 1.5000001);
  // The threshold is inclusive.
  const auto at = accept({1.1, 5, true}, {1.2, 8, true});
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->index_a, 8u);
  // Invalid candidates (even above the threshold) and below-threshold
  // ones give nothing.
  EXPECT_FALSE(accept({}, {}).has_value());
  EXPECT_FALSE(accept({1.9, 5, false}, {1.9, 8, false}).has_value());
  EXPECT_FALSE(accept({1.1999999, 5, true}, {-0.5, 8, true}).has_value());
}

class SynOffsetSweep : public ::testing::TestWithParam<int> {};

TEST_P(SynOffsetSweep, RecoversArbitraryOffsets) {
  const int offset = GetParam();
  const auto a = drive(11, 0, 250, 30, 0.8, 10);
  const auto b = drive(11, offset, 250, 30, 0.8, 11);
  const SynSeeker seeker(small_config());
  const auto syn = seeker.find_one(a, b);
  ASSERT_TRUE(syn.has_value()) << "offset " << offset;
  EXPECT_NEAR(resolve_distance(a, b, *syn), -static_cast<double>(offset), 3.0)
      << "offset " << offset;
}

INSTANTIATE_TEST_SUITE_P(Offsets, SynOffsetSweep,
                         ::testing::Values(0, 5, 15, 60, 150));

}  // namespace
}  // namespace rups::core
