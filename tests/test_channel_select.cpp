#include "core/channel_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>

#include "core/packed.hpp"
#include "util/rng.hpp"

namespace rups::core {
namespace {

/// The differential oracle: the channel-at-a-time ranking the production
/// loop replaced, copied verbatim. One pass over the window per channel,
/// partial_sort of the qualified channels, then a final sort.
std::vector<std::size_t> oracle_select(const ContextTrajectory& trajectory,
                                       std::size_t window_start,
                                       std::size_t window_m, std::size_t k,
                                       double min_coverage) {
  std::vector<std::size_t> out;
  if (trajectory.empty() || window_m == 0 ||
      window_start >= trajectory.size()) {
    return out;
  }
  const std::size_t len =
      std::min(window_m, trajectory.size() - window_start);
  const std::size_t end = window_start + len;
  const std::size_t channels = trajectory.channels();

  std::vector<ChannelRank> ranks;
  ranks.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = window_start; i < end; ++i) {
      const PowerVector& pv = trajectory.power(i);
      if (pv.usable(c)) {
        sum += pv.at(c);
        ++n;
      }
    }
    if (static_cast<double>(n) < min_coverage * static_cast<double>(len)) {
      continue;
    }
    ranks.push_back({c, sum / static_cast<double>(n)});
  }
  const std::size_t take = std::min(k, ranks.size());
  std::partial_sort(ranks.begin(), ranks.begin() + static_cast<long>(take),
                    ranks.end(), [](const ChannelRank& a, const ChannelRank& b) {
                      if (a.mean != b.mean) return a.mean > b.mean;
                      return a.channel < b.channel;
                    });
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(ranks[i].channel);
  std::sort(out.begin(), out.end());
  return out;
}

/// Trajectory where channel c's level is -100 + c dB (higher channel index
/// = stronger), fully measured.
ContextTrajectory make_graded(std::size_t metres, std::size_t channels) {
  ContextTrajectory traj(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      pv.set(c, static_cast<float>(-100.0 + static_cast<double>(c)));
    }
    traj.append(GeoSample{}, std::move(pv));
  }
  return traj;
}

TEST(ChannelSelect, PicksStrongest) {
  const auto traj = make_graded(50, 20);
  const auto top = select_top_channels(traj, 0, 50, 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top, (std::vector<std::size_t>{15, 16, 17, 18, 19}));
}

TEST(ChannelSelect, ResultSortedAscending) {
  const auto traj = make_graded(50, 30);
  const auto top = select_top_channels(traj, 0, 50, 10);
  EXPECT_TRUE(std::is_sorted(top.begin(), top.end()));
}

TEST(ChannelSelect, KLargerThanChannelsReturnsAll) {
  const auto traj = make_graded(20, 8);
  const auto top = select_top_channels(traj, 0, 20, 100);
  EXPECT_EQ(top.size(), 8u);
}

TEST(ChannelSelect, LowCoverageChannelExcluded) {
  ContextTrajectory traj(3, 40);
  for (std::size_t i = 0; i < 40; ++i) {
    PowerVector pv(3);
    pv.set(0, -90.0f);
    pv.set(1, -95.0f);
    if (i < 4) pv.set(2, -50.0f);  // strongest but only 10% coverage
    traj.append(GeoSample{}, std::move(pv));
  }
  const auto top = select_top_channels(traj, 0, 40, 3, /*min_coverage=*/0.3);
  EXPECT_EQ(top, (std::vector<std::size_t>{0, 1}));
}

TEST(ChannelSelect, EmptyTrajectory) {
  ContextTrajectory traj(4, 10);
  EXPECT_TRUE(select_top_channels(traj, 0, 10, 3).empty());
}

TEST(ChannelSelect, WindowBeyondEndClamped) {
  const auto traj = make_graded(10, 6);
  const auto top = select_top_channels(traj, 5, 100, 2);
  EXPECT_EQ(top.size(), 2u);
  // A window whose end would wrap past SIZE_MAX is clamped the same way.
  const auto tail = select_top_channels(traj, 5, traj.size() - 5, 3);
  ASSERT_EQ(tail.size(), 3u);
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(select_top_channels(traj, 5, kHuge, 3), tail);
  EXPECT_EQ(select_top_channels(traj, 5, kHuge - 2, 3), tail);
  // The coverage route counts only the pack's columns of the clamped
  // window.
  PackedContext pack;
  pack.sync(traj);
  ChannelSelectScratch scratch;
  std::vector<std::size_t> all;
  select_top_channels_into(traj, 5, kHuge, 6, scratch, all,
                           kDefaultMinCoverage, &pack);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ChannelSelect, NeverHeardChannelIsNotRankedAtZeroCoverage) {
  // With min_coverage 0 a channel with no usable reading would rank with
  // the mean 0/0 = NaN; it must be skipped instead.
  ContextTrajectory traj(4, 20);
  for (std::size_t i = 0; i < 20; ++i) {
    PowerVector pv(4);
    pv.set(0, -90.0f);
    pv.set(1, -70.0f);
    pv.set(3, -80.0f);
    traj.append(GeoSample{}, std::move(pv));
  }
  EXPECT_EQ(select_top_channels(traj, 0, 20, 4, 0.0),
            (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(select_top_channels(traj, 0, 20, 2, 0.0),
            (std::vector<std::size_t>{1, 3}));
}

/// A random trajectory: `mask` is each slot's chance of being missing; with
/// `ties`, every reading is one of three levels, so many channel means tie
/// exactly and only the channel index orders them.
ContextTrajectory random_trajectory(util::Rng& rng, std::size_t width,
                                    std::size_t metres, double mask,
                                    bool ties) {
  ContextTrajectory t(width, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(width);
    for (std::size_t c = 0; c < width; ++c) {
      if (rng.bernoulli(mask)) continue;
      const float v =
          ties ? -60.0f - 10.0f * static_cast<float>(rng.uniform_int(0, 2))
               : static_cast<float>(rng.uniform(-110.0, -40.0));
      pv.set(c, v,
             rng.bernoulli(0.5) ? ChannelState::kMeasured
                                : ChannelState::kInterpolated);
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

TEST(ChannelSelect, BlockedRankingEqualsChannelAtATimeOracle) {
  // Every case is ranked without a pack and with three packs: its own in
  // sync, another trajectory's of the same shape, and its own left stale by
  // an edit. Only the first may supply coverage counts; each result must
  // equal the oracle on the trajectory's current values.
  util::Rng rng(0xC4A77E1);
  ChannelSelectScratch scratch;  // reused across shapes, as sessions do
  std::vector<std::size_t> got;
  const double coverages[] = {1e-9, 0.3, 0.7, 1.0};
  for (int trial = 0; trial < 1500; ++trial) {
    const auto width = static_cast<std::size_t>(rng.uniform_int(1, 130));
    const auto metres = static_cast<std::size_t>(rng.uniform_int(1, 220));
    const double mask = static_cast<double>(rng.uniform_int(0, 10)) / 10.0;
    const bool ties = rng.bernoulli(0.5);
    ContextTrajectory t = random_trajectory(rng, width, metres, mask, ties);
    const ContextTrajectory other =
        random_trajectory(rng, width, metres, 0.5, ties);
    const auto window = static_cast<std::size_t>(rng.uniform_int(1, 200));
    const auto start =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(
                                                        metres - 1)));
    // k below, at and above the width.
    const std::size_t ks[] = {
        0, 1, static_cast<std::size_t>(rng.uniform_int(
                  1, static_cast<std::int64_t>(width))),
        width, width + 7, 45};
    double coverage[std::size(ks)];
    for (double& c : coverage) c = coverages[rng.uniform_int(0, 3)];
    PackedContext own;
    own.sync(t);
    PackedContext foreign;
    foreign.sync(other);

    const auto expect_oracle = [&](const char* label,
                                   std::initializer_list<const PackedContext*>
                                       packs) {
      for (std::size_t q = 0; q < std::size(ks); ++q) {
        const std::vector<std::size_t> want =
            oracle_select(t, start, window, ks[q], coverage[q]);
        for (const PackedContext* pack : packs) {
          select_top_channels_into(t, start, window, ks[q], scratch, got,
                                   coverage[q], pack);
          ASSERT_EQ(got, want)
              << label << " pack " << (pack == nullptr ? "none"
                                       : pack == &own ? "own"
                                                      : "foreign")
              << " trial " << trial << " width " << width << " metres "
              << metres << " mask " << mask << " ties " << ties << " start "
              << start << " window " << window << " k " << ks[q]
              << " coverage " << coverage[q];
        }
      }
    };
    ASSERT_NO_FATAL_FAILURE(
        expect_oracle("unedited", {nullptr, &own, &foreign}));
    // Clear every other metre of the window, leaving `own` stale.
    for (std::size_t i = start; i < std::min(start + window, metres);
         i += 2) {
      t.mutable_power(i).reset();
    }
    ASSERT_NO_FATAL_FAILURE(expect_oracle("edited", {nullptr, &own}));
  }
}

TEST(WindowRanks, HeldRankingServesOnlyItsOwnWindowAndState) {
  util::Rng rng(7);
  ContextTrajectory t = random_trajectory(rng, 24, 80, 0.3, false);
  ChannelSelectScratch scratch;
  WindowRanks ranks;
  ranks.rank(0, t, 40, 30, 8, scratch);
  const std::vector<std::size_t>* held = ranks.find(t, 40, 30, 8);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, select_top_channels(t, 40, 30, 8));
  EXPECT_EQ(ranks.find(t, 41, 30, 8), nullptr);
  EXPECT_EQ(ranks.find(t, 40, 29, 8), nullptr);
  EXPECT_EQ(ranks.find(t, 40, 30, 9), nullptr);

  // An append (evicting the oldest metre) keeps the window's metres and
  // values: still served, one index earlier.
  t.append(GeoSample{}, PowerVector(24));
  EXPECT_EQ(ranks.find(t, 39, 30, 8), held);
  EXPECT_EQ(ranks.find(t, 40, 30, 8), nullptr);
  // An in-place edit and a copy both retire it.
  t.mutable_power(50).set(3, -20.0f);
  EXPECT_EQ(ranks.find(t, 39, 30, 8), nullptr);
  ranks.rank(0, t, 39, 30, 8, scratch);
  EXPECT_EQ(*ranks.find(t, 39, 30, 8), select_top_channels(t, 39, 30, 8));
  const ContextTrajectory copy = t;
  EXPECT_EQ(ranks.find(copy, 39, 30, 8), nullptr);
}

}  // namespace
}  // namespace rups::core
