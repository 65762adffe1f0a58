#include "core/channel_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace rups::core {
namespace {

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
}

}  // namespace
}  // namespace rups::core
