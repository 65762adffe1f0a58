#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace rups::core {

/// One coverage-qualified channel with its window-mean RSSI.
struct ChannelRank {
  std::size_t channel;
  double mean;
};

/// Reusable ranking workspace: holding one per long-lived session keeps
/// repeated selections allocation-free once the vector reaches the
/// trajectory's channel count.
struct ChannelSelectScratch {
  std::vector<ChannelRank> ranks;
};

/// Select the `k` strongest channels over a window of a trajectory —
/// the paper's checking window is "top 45 channels wide" (Sec. VI-B).
/// Channels are ranked by mean usable RSSI over the window; channels with
/// coverage below `min_coverage` (fraction of window positions usable) are
/// excluded. Returned indices are sorted ascending.
[[nodiscard]] std::vector<std::size_t> select_top_channels(
    const ContextTrajectory& trajectory, std::size_t window_start,
    std::size_t window_m, std::size_t k, double min_coverage = 0.3);

/// Scratch-reusing form: writes the selection into `out` (cleared first,
/// capacity retained). Identical ranking arithmetic and ordering to
/// select_top_channels.
void select_top_channels_into(const ContextTrajectory& trajectory,
                              std::size_t window_start, std::size_t window_m,
                              std::size_t k, ChannelSelectScratch& scratch,
                              std::vector<std::size_t>& out,
                              double min_coverage = 0.3);

}  // namespace rups::core
