#include "core/channel_select.hpp"

#include <algorithm>

namespace rups::core {

void select_top_channels_into(const ContextTrajectory& trajectory,
                              std::size_t window_start, std::size_t window_m,
                              std::size_t k, ChannelSelectScratch& scratch,
                              std::vector<std::size_t>& out,
                              double min_coverage) {
  out.clear();
  if (trajectory.empty() || window_m == 0 ||
      window_start >= trajectory.size()) {
    return;
  }
  const std::size_t end =
      std::min(window_start + window_m, trajectory.size());
  const std::size_t len = end - window_start;
  const std::size_t channels = trajectory.channels();

  std::vector<ChannelRank>& ranks = scratch.ranks;
  ranks.clear();
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
}

std::vector<std::size_t> select_top_channels(
    const ContextTrajectory& trajectory, std::size_t window_start,
    std::size_t window_m, std::size_t k, double min_coverage) {
  ChannelSelectScratch scratch;
  std::vector<std::size_t> out;
  select_top_channels_into(trajectory, window_start, window_m, k, scratch, out,
                           min_coverage);
  return out;
}

}  // namespace rups::core
