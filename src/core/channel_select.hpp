#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace rups::core {

class PackedContext;

/// Default fraction of a window's metres a channel must be usable in.
inline constexpr double kDefaultMinCoverage = 0.3;

/// One coverage-qualified channel with its window-mean RSSI.
struct ChannelRank {
  std::size_t channel;
  double mean;
};

/// Reusable ranking workspace: holding one per long-lived session keeps
/// repeated selections allocation-free once the vectors reach the
/// trajectory's channel count.
struct ChannelSelectScratch {
  std::vector<ChannelRank> ranks;
  std::vector<std::uint8_t> picked;
  std::vector<std::size_t> counts;  ///< usable metres per channel
  /// Rankings per route since the last count_rank_routes().
  std::uint64_t coverage_rankings = 0;
  std::uint64_t means_rankings = 0;
};

/// Select the `k` strongest channels over a window of a trajectory —
/// the paper's checking window is "top 45 channels wide" (Sec. VI-B).
/// Channels are ranked by mean usable RSSI over the window (ties broken by
/// the lower channel index); channels never usable in the window, or with
/// coverage below `min_coverage` (fraction of window positions usable),
/// are excluded. The window is clamped to the trajectory's end. Returned
/// indices are sorted ascending.
[[nodiscard]] std::vector<std::size_t> select_top_channels(
    const ContextTrajectory& trajectory, std::size_t window_start,
    std::size_t window_m, std::size_t k,
    double min_coverage = kDefaultMinCoverage);

/// Scratch-reusing form: writes the selection into `out` (cleared first,
/// capacity retained), equal to select_top_channels.
///
/// Route rule: when k >= trajectory.channels() every qualified channel is
/// selected, so given a `pack` that is in_sync_with(trajectory) the
/// "coverage" route only counts each channel's usable metres in the pack's
/// 0/1 validity rows (the values the kernel scores) and forms no mean.
/// Otherwise — k < channels, or no pack, or a stale or foreign one — the
/// "means" route ranks by window means. Both give the same selection. The
/// route is tallied in `scratch`; count_rank_routes() publishes it.
void select_top_channels_into(const ContextTrajectory& trajectory,
                              std::size_t window_start, std::size_t window_m,
                              std::size_t k, ChannelSelectScratch& scratch,
                              std::vector<std::size_t>& out,
                              double min_coverage = kDefaultMinCoverage,
                              const PackedContext* pack = nullptr);

/// Add `scratch`'s route tallies to `syn.rank_route{route}` and zero them,
/// so a batch of rankings costs one counter update per route.
void count_rank_routes(ChannelSelectScratch& scratch);

/// Top-k selections of some of one trajectory's windows, each keyed by the
/// trajectory state it was ranked on (identity, revision) and the window's
/// odometer start, length and k — at the default min_coverage. A caller
/// ranks the windows a round will use once, before any query reads them;
/// the seek plan takes a held selection only when every key matches its
/// own window, so a stale or foreign one is never used.
class WindowRanks {
 public:
  /// Make `slot` hold the top-k channels of [start, start + window) of `t`
  /// (which must fit in `t`), re-ranking only when it holds another window
  /// or trajectory state. `pack` is select_top_channels_into's; the route
  /// is tallied in `scratch`, not counted.
  void rank(std::size_t slot, const ContextTrajectory& t, std::size_t start,
            std::size_t window, std::size_t k, ChannelSelectScratch& scratch,
            const PackedContext* pack = nullptr);

  /// The held selection of exactly this window of `t`'s current state, or
  /// null.
  [[nodiscard]] const std::vector<std::size_t>* find(
      const ContextTrajectory& t, std::size_t start, std::size_t window,
      std::size_t k) const noexcept;

 private:
  struct Held {
    std::uint64_t identity = 0;  ///< 0 (no trajectory's) until ranked
    std::uint64_t revision = 0;
    std::uint64_t first_metre = 0;  ///< odometer metre of the window start
    std::size_t window = 0;
    std::size_t k = 0;
    std::vector<std::size_t> channels;

    [[nodiscard]] bool matches(const ContextTrajectory& t, std::size_t start,
                               std::size_t win,
                               std::size_t top) const noexcept {
      return identity == t.identity() && revision == t.revision() &&
             first_metre == t.first_metre() + start && window == win &&
             k == top;
    }
  };
  std::vector<Held> slots_;
};

}  // namespace rups::core
