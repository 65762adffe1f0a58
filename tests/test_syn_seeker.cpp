#include "core/syn_seeker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/fleet.hpp"
#include "core/packed.hpp"
#include "core/resolver.hpp"
#include "core/syn_cache.hpp"
#include "obs/metrics.hpp"
#include "service/matcher_service.hpp"
#include "support/road_field.hpp"
#include "util/rng.hpp"

namespace rups::core {
namespace {

using test::drive;
using test::road_rssi;
using test::small_config;

TEST(SynSeeker, FindsExactOverlapOffset) {
  // The compact search, and the paper point (m = 1000, w = 100, k = 45,
  // 10% of readings missing). Pack-backed and SubsetPack fallback seeks
  // must find the same point, bit for bit.
  SynConfig paper;
  paper.window_m = 100;
  paper.top_channels = 45;
  const struct {
    std::uint64_t road;
    std::int64_t offset;
    std::size_t len, channels;
    double sigma, usable;
    SynConfig cfg;
  } cases[] = {{1, 50, 200, 30, 0.5, 1.0, small_config()},
               {99, 137, 1000, 45, 0.4, 0.9, paper}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.len);
    const auto a = drive(c.road, 0, c.len, c.channels, c.sigma, 10,
                         {.usable_fraction = c.usable});
    const auto b = drive(c.road, c.offset, c.len, c.channels, c.sigma, 11,
                         {.usable_fraction = c.usable});
    const SynSeeker seeker(c.cfg);
    const auto syns = seeker.find(a, b);
    ASSERT_EQ(syns.size(), 1u);
    const SynPoint& syn = syns.front();
    // Matched windows must reference the same road metres:
    // road(a) = index_a, road(b) = offset + index_b.
    EXPECT_NEAR(static_cast<double>(syn.index_a) -
                    static_cast<double>(syn.index_b),
                static_cast<double>(c.offset), 2.0);
    EXPECT_GE(syn.correlation, 1.2);
    PackedContext pa;
    PackedContext pb;
    pa.sync(a);
    pb.sync(b);
    const auto packed = seeker.find(a, b, &pa, &pb);
    ASSERT_EQ(packed.size(), 1u);
    EXPECT_EQ(packed.front().index_a, syn.index_a);
    EXPECT_EQ(packed.front().index_b, syn.index_b);
    EXPECT_EQ(packed.front().window_m, syn.window_m);
    EXPECT_EQ(packed.front().correlation, syn.correlation);
  }
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
  // A hint, right or wrong, changes no SYN point.
  SynSeeker::SeekScratch ws;
  std::vector<SynPoint> seeded;
  seeker.find_into(a, b, &pa, &pb, ws, seeded);
  expect_same_points(want, seeded);
  const std::uint64_t hint = ws.last_offset_m.value();
  for (const std::uint64_t off : {0ULL, 1ULL, 170ULL, ~0ULL}) {
    ws.last_offset_m = hint + off;
    seeker.find_into(a, b, &pa, &pb, ws, seeded);
    expect_same_points(want, seeded);
  }

  // Both cars drive on 6 m: the cache re-verifies its ±12 m bands.
  SynCache cache(cfg);
  std::vector<SynPoint> got;
  cache.find_into(a, b, &pa, got);
  expect_same_points(want, got);
  const auto a2 = drive(5, 0, 306, 30, 0.5, 20);
  const auto b2 = drive(5, 70, 306, 30, 0.5, 21);
  PackedContext pa2;
  pa2.sync(a2);
  cache.find_into(a2, b2, &pa2, got);
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
    cache.find_into(a, b, &pa, got);
    ASSERT_FALSE(got.empty());
    expect_same_points(SynSeeker(cfg).find(a, b), got);
  }
  // The first round searched in full and locked; the second tracked.
  EXPECT_EQ(cache.stats().full_searches, 1u);
  EXPECT_EQ(cache.stats().tracking_hits, 1u);
}

std::uint64_t kernel_blocks() {
  return obs::Registry::global().counter("syn.kernel_blocks").value();
}

TEST(SynSeeker, ShortBandCountsTheBlocksThatRun) {
  // A 5-position band at the top of a 160 m span is one 16-lane block; on
  // a span too short for a full block it is five single-position blocks.
  // Either way it picks the per-position scan's best.
  const SynConfig cfg = small_config();
  const SynSeeker seeker(cfg);
  const std::size_t w = cfg.window_m;
  for (const std::size_t len : {std::size_t{160}, w + kLagBlock - 2}) {
    SCOPED_TRACE(len);
    const auto a = drive(9, 0, len, 30, 0.5, 40);
    const auto b = drive(9, 3, len, 30, 0.5, 41);
    PackedContext pa;
    PackedContext pb;
    pa.sync(a);
    pb.sync(b);
    std::vector<std::size_t> rows(cfg.top_channels);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    const std::size_t last = len - w;
    const PackedView fixed{pa.span(), rows};
    const PackedView sliding{pb.span(), rows};
    const std::uint64_t before = kernel_blocks();
    const auto got = seeker.best_over_positions({fixed, last, sliding}, w,
                                                last - 4, last + 1);
    EXPECT_EQ(kernel_blocks() - before, len == 160 ? 1u : 5u);
    SynSeeker::Candidate want;
    for (std::size_t pos = last - 4; pos <= last; ++pos) {
      const double r =
          packed_correlation(fixed, last, sliding, pos, w, cfg.correlation);
      if (!want.valid || r > want.correlation) want = {r, pos, true};
    }
    ASSERT_TRUE(got.valid);
    EXPECT_EQ(got.position, want.position);
    EXPECT_EQ(std::memcmp(&got.correlation, &want.correlation, sizeof(double)),
              0);
  }
}

/// Integer dBm readings, metre-major (NaN: missing), so every float sum
/// of a row is exact and equal multisets give equal channel means.
struct Grid {
  std::size_t channels = 0;
  std::vector<float> dbm;
  float& at(std::size_t i, std::size_t c) { return dbm[i * channels + c]; }
  [[nodiscard]] ContextTrajectory trajectory() const {
    const std::size_t len = dbm.size() / channels;
    ContextTrajectory t(channels, len);
    for (std::size_t i = 0; i < len; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        const float v = dbm[i * channels + c];
        if (!std::isnan(v)) pv.set(c, v);
      }
      t.append(GeoSample{0.0, static_cast<double>(i)}, std::move(pv));
    }
    return t;
  }
};

/// Per-channel integer random walks (or, with `walk` false, independent
/// draws around one level), each reading missing with `mask`.
Grid random_grid(util::Rng& rng, std::size_t len, std::size_t channels,
                 double mask, bool walk) {
  Grid g{channels, std::vector<float>(len * channels)};
  for (std::size_t c = 0; c < channels; ++c) {
    const auto base = static_cast<float>(rng.uniform_int(-100, -50));
    float v = base;
    for (std::size_t i = 0; i < len; ++i) {
      const auto step = static_cast<float>(rng.uniform_int(-3, 3));
      v = walk ? v + step : base + 2.0f * step;
      g.at(i, c) = rng.uniform() < mask ? NAN : v;
    }
  }
  return g;
}

TEST(SynSeeker, PrunedScanMatchesFullScan) {
  // Pruned best_over_positions against the plain scan, bit for bit, over
  // random masks, 45-of-45 and 45-of-115 plans, seeds anywhere, planted
  // exact ties, degenerate profiles, all-rejected lanes and pass-2 bars.
  util::Rng rng(2005);
  const auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  const auto shuffle = [&pick](std::vector<std::size_t>& v) {
    std::iota(v.begin(), v.end(), std::size_t{0});
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[pick(0, i - 1)]);
    }
  };
  std::uint64_t pruned = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const int mode = trial % 4;  // 0 plain, 1 ties, 2 flat profile, 3 -2s
    const std::size_t channels = trial % 8 < 4 ? 45 : 115;
    const double mask = rng.uniform(0.0, 0.4);
    const std::size_t w = pick(20, 100);
    const std::size_t len_a = w + pick(0, 60);
    const std::size_t len_b = w + pick(40, 300);
    // Tie copies (modes 1 and 2) in different blocks, each a seed below.
    const std::size_t p1 = pick(0, len_b - w - 20);
    const std::size_t p2 = pick(p1 + 20, len_b - w);
    // Independent draws keep a tie copy's neighbours far below it.
    Grid ga = random_grid(rng, len_a, channels, mask, mode != 1);
    Grid gb = random_grid(rng, len_b, channels, mask, mode != 1);
    std::vector<std::size_t> rows(channels);
    shuffle(rows);
    rows.resize(45);
    const std::size_t a_start = pick(0, len_a - w);
    if (mode == 2) {
      // Every channel carries one waveform: equal channel means, so the
      // profile term is rounding noise that the clamp must bound.
      for (Grid* g : {&ga, &gb}) {
        for (std::size_t i = 0; i < g->dbm.size() / channels; ++i) {
          for (std::size_t c = 1; c < channels; ++c) g->at(i, c) = g->at(i, 0);
        }
      }
    }
    if (mode == 1 || mode == 2) {
      // Plant the fixed window at two positions: rows 0-3 fully usable
      // and shuffled alike in both copies, the rest exact copies. Equal
      // means give a profile term of exactly 1, so the rows past the
      // first check bound the copies tightly.
      for (std::size_t kk = 0; kk < 4; ++kk) {
        for (std::size_t i = 0; i < w; ++i) {
          float& v = ga.at(a_start + i, rows[kk]);
          if (std::isnan(v)) v = -70.0f;
        }
      }
      std::vector<std::size_t> order(w);
      shuffle(order);
      for (const std::size_t p : {p1, p2}) {
        for (std::size_t i = 0; i < w; ++i) {
          for (std::size_t c = 0; c < channels; ++c) {
            gb.at(p + i, c) = ga.at(a_start + i, c);
          }
          for (std::size_t kk = 0; kk < 4 && mode == 1; ++kk) {
            gb.at(p + i, rows[kk]) = ga.at(a_start + order[i], rows[kk]);
          }
        }
      }
    }
    SynConfig cfg;
    cfg.window_m = w;
    if (mode == 3) cfg.correlation.min_channels = 46;  // every lane -2
    const SynSeeker seeker(cfg);
    const auto a = ga.trajectory();
    const auto b = gb.trajectory();
    PackedContext pa;
    PackedContext pb;
    pa.sync(a);
    pb.sync(b);
    const ScanPair pair{{pa.span(), rows}, a_start, {pb.span(), rows}};
    const std::size_t last = len_b - w + 1;
    const std::size_t lo = trial % 3 == 0 ? pick(0, last - 1) : 0;
    const std::size_t hi = trial % 5 == 0 ? last + 7 : last;
    std::uint64_t before = kernel_blocks();
    const auto full = seeker.best_over_positions(pair, w, lo, hi);
    const std::uint64_t full_blocks = kernel_blocks() - before;
    ASSERT_TRUE(full.valid);

    obs::Counter& pruned_blocks =
        obs::Registry::global().counter("syn.pruned_blocks");
    const auto check = [&](const SynSeeker::Pruning& pr) {
      SCOPED_TRACE(pr.bar);
      SCOPED_TRACE(pr.seed.value_or(~std::size_t{0}));
      const std::uint64_t p0 = pruned_blocks.value();
      before = kernel_blocks();
      const auto got = seeker.best_over_positions(pair, w, lo, hi, &pr);
      EXPECT_EQ(kernel_blocks() - before, full_blocks);
      pruned += pruned_blocks.value() - p0;
      if (!(full.correlation > pr.bar)) {
        EXPECT_FALSE(got.valid);
        return;
      }
      ASSERT_TRUE(got.valid);
      EXPECT_EQ(got.position, full.position);
      EXPECT_EQ(std::memcmp(&got.correlation, &full.correlation, 8), 0)
          << got.correlation << " vs " << full.correlation;
    };
    const std::size_t inside = pick(lo, last - 1);
    for (const std::optional<std::size_t> seed :
         {std::optional<std::size_t>{}, std::optional{inside},
          std::optional{lo}, std::optional{last - 1}, std::optional{p1},
          std::optional{p2}, std::optional<std::size_t>{0},
          std::optional{last + 500}, std::optional{~std::size_t{0}}}) {
      check({-std::numeric_limits<double>::infinity(), seed});
    }
    const double s = full.correlation;
    for (const double bar : {s, std::nextafter(s, -HUGE_VAL),
                             std::nextafter(s, HUGE_VAL), s - 0.5}) {
      check({bar, inside});
    }
  }
  EXPECT_GT(pruned, 0u);
}

TEST(SynCache, DisabledCacheCarriesNoSeed) {
  // The neighbour leads by 60 m, so pass 1's match lies past its first
  // blocks. A seeker that keeps its scratch seeds the second search there
  // and prunes more; a disabled cache searches cold every time.
  const SynConfig cfg = small_config();
  const auto a = drive(8, 0, 200, 30, 0.5, 60);
  const auto b = drive(8, 60, 200, 30, 0.5, 61);
  PackedContext pa;
  pa.sync(a);
  obs::Counter& pruned = obs::Registry::global().counter("syn.pruned_blocks");
  const auto twice = [&](const auto& query) {
    std::uint64_t counts[2];
    for (std::uint64_t& n : counts) {
      const std::uint64_t before = pruned.value();
      query();
      n = pruned.value() - before;
    }
    return std::pair{counts[0], counts[1]};
  };
  SynCacheConfig off;
  off.enabled = false;
  SynCache cache(cfg, off);
  std::vector<SynPoint> got;
  const auto [cold1, cold2] = twice([&] {
    cache.find_into(a, b, &pa, got);
    ASSERT_FALSE(got.empty());
  });
  EXPECT_EQ(cold1, cold2);
  const SynSeeker seeker(cfg);
  SynSeeker::SeekScratch ws;
  const auto [first, seeded] = twice([&] {
    seeker.find_into(a, b, &pa, nullptr, ws, got);
  });
  EXPECT_EQ(first, cold1);
  EXPECT_GT(seeded, first);
}

TEST(SynCache, TopClampedShortBandsTrackLikeAColdSearch) {
  // The neighbour drives d metres behind, so pass 1 places the local
  // window d metres past the neighbour's newest full window: the ±12 m
  // band is clamped to 13 - d positions at the top of the neighbour's
  // context, and pass 2's band to 13 + d ending at the local top. The warm
  // round must track and return a cold find()'s point bit for bit.
  SynConfig cfg = small_config();
  cfg.syn_points = 1;
  for (const std::int64_t d : {4, 8, 11}) {
    SCOPED_TRACE(d);
    SynCache cache(cfg);
    std::vector<SynPoint> got;
    for (const std::size_t len : {200, 206}) {
      const auto a = drive(7, 0, len, 30, 0.5, 50);
      const auto b = drive(7, -d, len, 30, 0.5, 51);
      PackedContext pa;
      pa.sync(a);
      const std::uint64_t before = kernel_blocks();
      cache.find_into(a, b, &pa, got);
      const std::uint64_t blocks = kernel_blocks() - before;
      ASSERT_FALSE(got.empty());
      expect_same_points(SynSeeker(cfg).find(a, b), got);
      if (len == 206) {
        const auto pass2 = static_cast<std::size_t>(13 + d);
        EXPECT_EQ(blocks, 1 + (pass2 + kLagBlock - 1) / kLagBlock);
      }
    }
    EXPECT_EQ(cache.stats().full_searches, 1u);
    EXPECT_EQ(cache.stats().tracking_hits, 1u);
  }
}

TEST(SynSeeker, UnrunnableConfigsAreRejectedAtConstruction) {
  // Every seek scans every metre with the float kernel, so stride_m is
  // pinned to 1, coarse_stride_m to off (0 or 1) and precision to
  // kFloat32.
  std::vector<SynConfig> unrunnable;
  for (const std::size_t stride : {0, 2, 4}) {
    unrunnable.push_back(small_config());
    unrunnable.back().stride_m = stride;
  }
  for (const std::size_t coarse : {2, 8}) {
    unrunnable.push_back(small_config());
    unrunnable.back().coarse_stride_m = coarse;
  }
  for (const KernelPrecision precision :
       {KernelPrecision::kInt16, KernelPrecision::kInt8}) {
    unrunnable.push_back(SynConfig{});
    unrunnable.back().precision = precision;
  }
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
