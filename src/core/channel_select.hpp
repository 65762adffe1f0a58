#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace rups::core {

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
};

/// Select the `k` strongest channels over a window of a trajectory —
/// the paper's checking window is "top 45 channels wide" (Sec. VI-B).
/// Channels are ranked by mean usable RSSI over the window (ties broken by
/// the lower channel index); channels never usable in the window, or with
/// coverage below `min_coverage` (fraction of window positions usable),
/// are excluded. Returned indices are sorted ascending.
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
  /// or trajectory state.
  void rank(std::size_t slot, const ContextTrajectory& t, std::size_t start,
            std::size_t window, std::size_t k, ChannelSelectScratch& scratch);

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
