#include "core/packed.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

// Pins the lag-batched kernel's contract: packed_correlation_batch (and
// every explicit lane width) scores each position BIT-IDENTICALLY to a
// per-position packed_correlation call, across randomized window sizes,
// start positions, row maps (identity, channel-id, out-of-range, k > 128),
// partial usability masks, and block-boundary/remainder batch shapes. The
// determinism guarantees of SynSeeker / SynCache / FleetEngine all reduce
// to this property.

namespace rups::core {
namespace {

/// Random readings where channel row c keeps each metre with probability
/// row_usable[c] (1.0: a fully usable row, 0.0: a fully masked one).
ContextTrajectory rows_context(util::Rng& rng, std::size_t metres,
                               const std::vector<double>& row_usable) {
  const std::size_t channels = row_usable.size();
  ContextTrajectory t(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() > row_usable[c]) continue;  // leave unusable
      pv.set(c, static_cast<float>(-110.0 + 60.0 * rng.uniform()));
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

ContextTrajectory random_context(util::Rng& rng, std::size_t metres,
                                 std::size_t channels,
                                 double usable_fraction) {
  return rows_context(rng, metres,
                      std::vector<double>(channels, usable_fraction));
}

std::vector<std::size_t> identity_rows(std::size_t k) {
  std::vector<std::size_t> rows(k);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

/// memcmp-strict equality: EXPECT_EQ on doubles would already reject any
/// value difference, but byte comparison also pins the sign of zero.
void expect_bit_equal(double want, double got, const char* what,
                      std::size_t q) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << what << " lane " << q << ": want " << want << " got " << got;
}

/// `lanes` == 0 runs the production packed_correlation_batch, otherwise
/// packed_correlation_batch_lanes at that width.
void expect_batch_matches_scalar(const PackedView& fixed,
                                 std::size_t fixed_start,
                                 const PackedView& sliding, std::size_t pos_lo,
                                 std::size_t pos_count, std::size_t window,
                                 const TrajectoryCorrelationConfig& config,
                                 const char* what, std::size_t lanes = 0) {
  std::vector<double> got(pos_count, 0.0);
  if (lanes == 0) {
    packed_correlation_batch(fixed, fixed_start, sliding, pos_lo, pos_count,
                             window, config, got.data());
  } else {
    packed_correlation_batch_lanes(lanes, fixed, fixed_start, sliding, pos_lo,
                                   pos_count, window, config, got.data());
  }
  for (std::size_t q = 0; q < pos_count; ++q) {
    const double want = packed_correlation(fixed, fixed_start, sliding,
                                           pos_lo + q, window, config);
    expect_bit_equal(want, got[q], what, q);
  }
}

/// Every lane width, including the production batch, against the scalar
/// per-position kernel on one (fixed, sliding) pair.
void expect_all_widths_match_scalar(const PackedView& fixed,
                                    std::size_t fixed_start,
                                    const PackedView& sliding,
                                    std::size_t pos_lo, std::size_t pos_count,
                                    std::size_t window,
                                    const TrajectoryCorrelationConfig& config,
                                    const char* what) {
  for (const std::size_t lanes : {0UL, 1UL, 4UL, 8UL, 16UL}) {
    SCOPED_TRACE(lanes);
    expect_batch_matches_scalar(fixed, fixed_start, sliding, pos_lo,
                                pos_count, window, config, what, lanes);
  }
}

TEST(PackedBatch, RandomizedWindowsMasksAndRemainders) {
  util::Rng rng(2024);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t channels = 8 + static_cast<std::size_t>(
                                         rng.uniform() * 32.0);
    const std::size_t window = 17 + static_cast<std::size_t>(
                                        rng.uniform() * 100.0);
    // Batch shapes around the block boundary: below, at, above, and
    // multi-block with a remainder.
    const std::size_t shapes[] = {1,
                                  kLagBlock - 1,
                                  kLagBlock,
                                  kLagBlock + 1,
                                  2 * kLagBlock,
                                  2 * kLagBlock + 5};
    const std::size_t pos_count = shapes[trial % 6];
    const std::size_t pos_lo =
        static_cast<std::size_t>(rng.uniform() * 7.0);
    // Heavily masked trials exercise the excluded-lane (select) path and
    // the -2.0 not-enough-channels sentinel.
    const double usable = (trial % 3 == 0) ? 0.35 : 0.9;
    const std::size_t sliding_metres = pos_lo + pos_count - 1 + window;

    const auto fa = random_context(rng, window + 4, channels, usable);
    const auto sb = random_context(rng, sliding_metres, channels, usable);
    const auto rows = identity_rows(channels);
    const SubsetPack fixed_pack(fa, rows, 2, window);
    const SubsetPack slide_pack(sb, rows, 0, sliding_metres);
    expect_all_widths_match_scalar({fixed_pack.span(), rows}, 0,
                                   {slide_pack.span(), rows}, pos_lo,
                                   pos_count, window, config, "randomized");
  }
}

TEST(PackedBatch, ChannelIdRowMapsIncludingOutOfRange) {
  // PackedContext views address rows by CHANNEL ID; ids beyond either
  // pack's width must be skipped identically by batch and scalar paths.
  util::Rng rng(7);
  const std::size_t channels = 36;
  const std::size_t window = 50;
  const auto a = random_context(rng, 120, channels, 0.85);
  const auto b = random_context(rng, 220, channels, 0.85);
  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);

  std::vector<std::size_t> rows;
  for (int k = 0; k < 20; ++k) {
    rows.push_back(static_cast<std::size_t>(rng.uniform() * channels));
  }
  rows.push_back(channels + 3);   // out of range: skipped
  rows.push_back(channels + 40);  // far out of range: skipped
  const TrajectoryCorrelationConfig config{};
  expect_batch_matches_scalar({pa.span(), rows}, 30, {pb.span(), rows}, 0,
                              220 - window + 1, window, config,
                              "channel-id rows");
}

TEST(PackedBatch, WideRowMapBeyond128Channels) {
  util::Rng rng(11);
  const std::size_t channels = 160;  // > the reference's 128 stack slots
  const std::size_t window = 40;
  const auto a = random_context(rng, 90, channels, 0.8);
  const auto b = random_context(rng, 150, channels, 0.8);
  const auto rows = identity_rows(channels);
  const SubsetPack fixed_pack(a, rows, 10, window);
  const SubsetPack slide_pack(b, rows, 0, 150);
  const TrajectoryCorrelationConfig config{};
  expect_batch_matches_scalar({fixed_pack.span(), rows}, 0,
                              {slide_pack.span(), rows}, 0, 150 - window + 1,
                              window, config, "k>128");
}

TEST(PackedBatch, AllLaneWidthsAreBitIdentical) {
  // The tuning surface: every explicit lane width (1 = per-position scalar
  // loop) must reproduce the production batch bit-for-bit — the per-lane
  // accumulation order never depends on the block shape.
  util::Rng rng(13);
  const std::size_t channels = 30;
  const std::size_t window = 70;
  const std::size_t pos_count = 77;  // multi-block + remainder for all B
  const auto a = random_context(rng, window + 2, channels, 0.9);
  const auto b = random_context(rng, pos_count - 1 + window, channels, 0.9);
  const auto rows = identity_rows(channels);
  const SubsetPack fixed_pack(a, rows, 0, window);
  const SubsetPack slide_pack(b, rows, 0, pos_count - 1 + window);
  const PackedView fixed{fixed_pack.span(), rows};
  const PackedView sliding{slide_pack.span(), rows};
  const TrajectoryCorrelationConfig config{};

  std::vector<double> want(pos_count, 0.0);
  packed_correlation_batch(fixed, 0, sliding, 0, pos_count, window, config,
                           want.data());
  for (const std::size_t lanes : {1UL, 4UL, 8UL, 16UL}) {
    std::vector<double> got(pos_count, 0.0);
    packed_correlation_batch_lanes(lanes, fixed, 0, sliding, 0, pos_count,
                                   window, config, got.data());
    for (std::size_t q = 0; q < pos_count; ++q) {
      expect_bit_equal(want[q], got[q], "lane width", q);
    }
  }
}

// The usable-row lane loop runs when a block's sliding row is 1.0 across
// every metre the block reads. Random masks at 0.35-0.9 almost never give
// a 16-lane block such a row, so these cases build the masks row by row.

TEST(PackedBatch, FullyUsableContextsAtEveryWidth) {
  util::Rng rng(31);
  const TrajectoryCorrelationConfig config{};
  const std::size_t channels = 30;
  const std::size_t window = 60;
  for (const std::size_t pos_count :
       {kLagBlock, kLagBlock + 1, 2 * kLagBlock + 5, std::size_t{77}}) {
    SCOPED_TRACE(pos_count);
    const std::size_t metres = pos_count - 1 + window;
    const auto a = random_context(rng, window + 9, channels, 1.0);
    const auto b = random_context(rng, metres, channels, 1.0);
    const auto rows = identity_rows(channels);
    const SubsetPack fixed_pack(a, rows, 9, window);
    const SubsetPack slide_pack(b, rows, 0, metres);
    expect_all_widths_match_scalar({fixed_pack.span(), rows}, 0,
                                   {slide_pack.span(), rows}, 0, pos_count,
                                   window, config, "fully usable");
  }
}

TEST(PackedBatch, FullyUsableChannelIdRowsAndWideRowMaps) {
  // PackedContext channel-id rows (repeats and out-of-range ids included),
  // and more checking rows than the kernel hoists fixed-row terms for.
  util::Rng rng(37);
  const TrajectoryCorrelationConfig config{};
  const std::size_t window = 45;
  const auto a = random_context(rng, 120, 40, 1.0);
  const auto b = random_context(rng, 200, 40, 1.0);
  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);
  std::vector<std::size_t> rows;
  for (int k = 0; k < 24; ++k) {
    rows.push_back(static_cast<std::size_t>(rng.uniform() * 40.0));
  }
  rows.push_back(40 + 2);  // out of range: skipped
  expect_all_widths_match_scalar({pa.span(), rows}, 50, {pb.span(), rows}, 0,
                                 200 - window + 1, window, config,
                                 "channel-id rows");

  const std::size_t wide = 150;
  const auto wa = random_context(rng, window, wide, 1.0);
  const auto wb = random_context(rng, 90, wide, 1.0);
  const auto wide_rows = identity_rows(wide);
  const SubsetPack fixed_pack(wa, wide_rows, 0, window);
  const SubsetPack slide_pack(wb, wide_rows, 0, 90);
  expect_all_widths_match_scalar({fixed_pack.span(), wide_rows}, 0,
                                 {slide_pack.span(), wide_rows}, 0,
                                 90 - window + 1, window, config,
                                 "wide row map");
}

TEST(PackedBatch, PerRowMasksMixBothLoops) {
  // Row by row: usable sliding rows beside masked fixed rows, masked
  // sliding rows beside usable fixed rows, fixed rows below and at
  // min_channel_overlap, and fully masked rows.
  util::Rng rng(41);
  TrajectoryCorrelationConfig config{};
  config.min_channels = 3;
  const std::size_t window = 50;
  const std::size_t pos_count = 3 * kLagBlock + 7;
  const std::size_t metres = pos_count - 1 + window;
  const std::vector<double> fixed_usable = {1.0, 0.6, 1.0, 0.3, 0.0,
                                            1.0, 0.9, 1.0, 1.0, 0.5};
  const std::vector<double> slide_usable = {1.0, 1.0, 0.7, 1.0, 1.0,
                                            0.0, 1.0, 1.0, 0.95, 1.0};
  const auto a = rows_context(rng, window, fixed_usable);
  const auto b = rows_context(rng, metres, slide_usable);
  const auto rows = identity_rows(fixed_usable.size());
  const SubsetPack fixed_pack(a, rows, 0, window);
  const SubsetPack slide_pack(b, rows, 0, metres);
  expect_all_widths_match_scalar({fixed_pack.span(), rows}, 0,
                                 {slide_pack.span(), rows}, 0, pos_count,
                                 window, config, "per-row masks");

  // Fixed rows with exactly min_channel_overlap - 1 and exactly
  // min_channel_overlap usable metres, and a constant (zero-variance) one,
  // beside fully usable sliding rows: the first is skipped outright, the
  // second is scored, the third is counted with zero correlation.
  const std::size_t overlap = config.min_channel_overlap;
  ContextTrajectory edge(4, window);
  for (std::size_t i = 0; i < window; ++i) {
    PowerVector pv(4);
    const auto dbm = static_cast<float>(-100.0 + 40.0 * rng.uniform());
    if (i < overlap - 1) pv.set(0, dbm);
    if (i >= window - overlap) pv.set(1, dbm + 3.0f);
    pv.set(2, dbm - 7.0f);
    pv.set(3, -80.0f);
    edge.append(GeoSample{}, std::move(pv));
  }
  const auto full = random_context(rng, metres, 4, 1.0);
  const auto rows4 = identity_rows(4);
  config.min_channels = 1;
  const SubsetPack edge_pack(edge, rows4, 0, window);
  const SubsetPack full_pack(full, rows4, 0, metres);
  expect_all_widths_match_scalar({edge_pack.span(), rows4}, 0,
                                 {full_pack.span(), rows4}, 0, pos_count,
                                 window, config, "overlap edge");
}

TEST(PackedBatch, OneMaskedMetreSplitsNeighbouringBlocks) {
  // A single masked sliding metre at the last slot a block reads (pos0 +
  // window + 14 for B = 16), at the first slot past it, and at the slot
  // just before a block: adjacent blocks take different loops.
  const TrajectoryCorrelationConfig config{};
  const std::size_t channels = 12;
  const std::size_t window = 40;
  const std::size_t pos_count = 4 * kLagBlock + 3;
  const std::size_t metres = pos_count - 1 + window;
  const auto rows = identity_rows(channels);
  util::Rng fixed_rng(43);
  const auto a = random_context(fixed_rng, window, channels, 1.0);
  const SubsetPack fixed_pack(a, rows, 0, window);
  const std::size_t pos0 = kLagBlock;  // the second block
  for (const std::size_t masked :
       {pos0 + window + kLagBlock - 2, pos0 + window + kLagBlock - 1,
        pos0 - 1, metres - 1}) {
    SCOPED_TRACE(masked);
    // The same readings every time, less the metre on rows 0 and 5.
    util::Rng rng(47);
    ContextTrajectory b(channels, metres);
    for (std::size_t i = 0; i < metres; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        const auto dbm = static_cast<float>(-110.0 + 60.0 * rng.uniform());
        if (i == masked && (c == 0 || c == 5)) continue;
        pv.set(c, dbm);
      }
      b.append(GeoSample{}, std::move(pv));
    }
    const SubsetPack slide_pack(b, rows, 0, metres);
    expect_all_widths_match_scalar({fixed_pack.span(), rows}, 0,
                                   {slide_pack.span(), rows}, 0, pos_count,
                                   window, config, "one masked metre");
  }
}

TEST(PackedBatch, PerfectMatchesAreClamped) {
  // One channel, so a lane's score is its r: the fixed window planted 3 dB
  // up (r rounds to either side of +1) or mirrored (of -1) must come out
  // clamped to exactly +-1, as the scalar kernel clamps it.
  TrajectoryCorrelationConfig config{};
  config.min_channels = 1;
  const std::size_t window = 50;
  const std::size_t metres = window + kLagBlock - 1;
  const auto rows = identity_rows(1);
  util::Rng rng(53);
  std::size_t clamped_up = 0;
  std::size_t clamped_down = 0;
  for (std::size_t trial = 0; trial < 48; ++trial) {
    const auto a = random_context(rng, window, 1, 1.0);
    const std::size_t at = trial % kLagBlock;
    const float scale = trial % 2 == 1 ? -1.0f : 1.0f;
    ContextTrajectory b(1, metres);
    for (std::size_t i = 0; i < metres; ++i) {
      PowerVector pv(1);
      pv.set(0, i >= at && i < at + window
                    ? scale * (a.power(i - at).at(0) + 80.0f) - 77.0f
                    : static_cast<float>(-110.0 + 60.0 * rng.uniform()));
      b.append(GeoSample{}, std::move(pv));
    }
    const SubsetPack fixed_pack(a, rows, 0, window);
    const SubsetPack slide_pack(b, rows, 0, metres);
    const PackedView fixed{fixed_pack.span(), rows};
    const PackedView sliding{slide_pack.span(), rows};
    expect_batch_matches_scalar(fixed, 0, sliding, 0, kLagBlock, window,
                                config, "perfect match");
    const double r =
        packed_correlation(fixed, 0, sliding, at, window, config);
    clamped_up += r == 1.0;
    clamped_down += r == -1.0;
  }
  // Some planted r did reach the clamp on each side.
  EXPECT_GT(clamped_up, 0u);
  EXPECT_GT(clamped_down, 0u);
}

}  // namespace
}  // namespace rups::core
