#include "core/channel_select.hpp"

#include <algorithm>

#include "core/isa_clones.hpp"
#include "core/packed.hpp"
#include "obs/metrics.hpp"

namespace rups::core {

namespace {

/// Rankings per route, handles resolved once.
struct RankRoutes {
  obs::CounterFamily& family =
      obs::Registry::global().counter_family("syn.rank_route", "route");
  obs::Counter& coverage = family.with("coverage");
  obs::Counter& means = family.with("means");
};

RankRoutes& rank_routes() {
  static RankRoutes r;
  return r;
}

/// Usable metres of each channel over columns [from, from + len) of a
/// pack's validity rows (every slot exactly 0.0f or 1.0f).
RUPS_ISA_CLONES __attribute__((noinline)) void count_valid_columns(
    const float* v, std::size_t stride, std::size_t channels,
    std::size_t from, std::size_t len, std::size_t* counts) {
  for (std::size_t c = 0; c < channels; ++c) {
    const float* row = v + c * stride + from;
    std::size_t n = 0;
    for (std::size_t i = 0; i < len; ++i) n += row[i] != 0.0f ? 1 : 0;
    counts[c] = n;
  }
}

/// Channels accumulated per pass over the window's metres.
constexpr std::size_t kChannelBlock = 8;

/// The ranking order: higher mean first, then the lower channel. Strict
/// and total over qualified channels (every mean is a real number).
bool stronger(const ChannelRank& a, const ChannelRank& b) noexcept {
  if (a.mean != b.mean) return a.mean > b.mean;
  return a.channel < b.channel;
}

/// Sums and counts the usable readings of channels [c0, c0 + W) over the
/// metres [start, end), in one pass over the metres. Each channel's sum
/// adds its readings in ascending metre order; an unusable slot adds +0.0,
/// which changes no sum that starts at +0.0.
template <std::size_t W>
void accumulate(const ContextTrajectory& t, std::size_t c0, std::size_t start,
                std::size_t end, double* sum, std::size_t* n) {
  double s[W] = {};
  std::size_t k[W] = {};
  for (std::size_t i = start; i < end; ++i) {
    const PowerVector& pv = t.power(i);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W; ++j) {
      const bool usable = pv.usable(c0 + j);
      s[j] += usable ? static_cast<double>(pv.at(c0 + j)) : 0.0;
      k[j] += usable ? 1 : 0;
    }
  }
  std::copy(s, s + W, sum);
  std::copy(k, k + W, n);
}

}  // namespace

void select_top_channels_into(const ContextTrajectory& trajectory,
                              std::size_t window_start, std::size_t window_m,
                              std::size_t k, ChannelSelectScratch& scratch,
                              std::vector<std::size_t>& out,
                              double min_coverage,
                              const PackedContext* pack) {
  out.clear();
  if (trajectory.empty() || window_m == 0 ||
      window_start >= trajectory.size()) {
    return;
  }
  const std::size_t len =
      std::min(window_m, trajectory.size() - window_start);
  const std::size_t end = window_start + len;
  const double need = min_coverage * static_cast<double>(len);
  const std::size_t channels = trajectory.channels();
  const auto qualified = [need](std::size_t n) {
    return n != 0 && !(static_cast<double>(n) < need);
  };

  if (k >= channels && pack != nullptr && pack->in_sync_with(trajectory)) {
    // Every qualified channel is selected, so no mean would ever be read.
    ++scratch.coverage_rankings;
    std::vector<std::size_t>& counts = scratch.counts;
    counts.resize(channels);
    const PackedSpan s = pack->span();
    count_valid_columns(s.v, s.stride, channels, window_start, len,
                        counts.data());
    out.reserve(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (qualified(counts[c])) out.push_back(c);
    }
    return;
  }
  ++scratch.means_rankings;

  // kChannelBlock channels per pass over the metres, then the last few
  // one at a time: every mean equals a channel-at-a-time loop's bit for
  // bit. Ranks come out in ascending channel order.
  std::vector<ChannelRank>& ranks = scratch.ranks;
  ranks.clear();
  ranks.reserve(channels);
  for (std::size_t c0 = 0; c0 < channels;) {
    const std::size_t width =
        channels - c0 >= kChannelBlock ? kChannelBlock : 1;
    double sum[kChannelBlock];
    std::size_t n[kChannelBlock];
    if (width == kChannelBlock) {
      accumulate<kChannelBlock>(trajectory, c0, window_start, end, sum, n);
    } else {
      accumulate<1>(trajectory, c0, window_start, end, sum, n);
    }
    for (std::size_t j = 0; j < width; ++j) {
      if (!qualified(n[j])) continue;
      ranks.push_back({c0 + j, sum[j] / static_cast<double>(n[j])});
    }
    c0 += width;
  }

  out.reserve(std::min(k, ranks.size()));
  if (ranks.size() <= k) {
    for (const ChannelRank& r : ranks) out.push_back(r.channel);
    return;
  }
  if (k == 0) return;
  // The top k under a strict total order is one set: find it, then emit
  // it in channel order.
  std::nth_element(ranks.begin(), ranks.begin() + static_cast<long>(k - 1),
                   ranks.end(), stronger);
  std::vector<std::uint8_t>& picked = scratch.picked;
  picked.assign(channels, 0);
  for (std::size_t i = 0; i < k; ++i) picked[ranks[i].channel] = 1;
  for (std::size_t c = 0; c < channels; ++c) {
    if (picked[c] != 0) out.push_back(c);
  }
}

void count_rank_routes(ChannelSelectScratch& scratch) {
  if (scratch.coverage_rankings != 0) {
    rank_routes().coverage.inc(scratch.coverage_rankings);
  }
  if (scratch.means_rankings != 0) {
    rank_routes().means.inc(scratch.means_rankings);
  }
  scratch.coverage_rankings = 0;
  scratch.means_rankings = 0;
}

std::vector<std::size_t> select_top_channels(
    const ContextTrajectory& trajectory, std::size_t window_start,
    std::size_t window_m, std::size_t k, double min_coverage) {
  ChannelSelectScratch scratch;
  std::vector<std::size_t> out;
  select_top_channels_into(trajectory, window_start, window_m, k, scratch, out,
                           min_coverage);
  count_rank_routes(scratch);
  return out;
}

void WindowRanks::rank(std::size_t slot, const ContextTrajectory& t,
                       std::size_t start, std::size_t window, std::size_t k,
                       ChannelSelectScratch& scratch,
                       const PackedContext* pack) {
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  Held& h = slots_[slot];
  if (h.matches(t, start, window, k)) return;
  select_top_channels_into(t, start, window, k, scratch, h.channels,
                           kDefaultMinCoverage, pack);
  h.identity = t.identity();
  h.revision = t.revision();
  h.first_metre = t.first_metre() + start;
  h.window = window;
  h.k = k;
}

const std::vector<std::size_t>* WindowRanks::find(
    const ContextTrajectory& t, std::size_t start, std::size_t window,
    std::size_t k) const noexcept {
  for (const Held& h : slots_) {
    if (h.matches(t, start, window, k)) return &h.channels;
  }
  return nullptr;
}

}  // namespace rups::core
