#pragma once

// Packed, reusable representation of a ContextTrajectory for the SYN-search
// kernel. Historically SynSeeker::slide() re-extracted a dense channel-major
// copy of BOTH trajectories on every call — per query, per pass, per recency
// offset — even when the trajectory had only grown by a metre since the last
// query. PackedContext packs ALL channels once (so the pack is valid for any
// checking-window channel subset) and extends incrementally as the
// trajectory grows, which is what makes SYN caching and fleet-scale batching
// (one ego pack shared by N neighbour queries) cheap. A pack holds two float
// rows per channel, the shifted RSSI and its 0/1 validity: the paper's
// search reads nothing else, and the kernel squares values as it goes.
//
// The correlation kernels live in packed.cpp and are LAG-BATCHED: one
// traversal of the checking window scores a block of kLagBlock sliding
// positions, with the fixed-row values loaded once and broadcast while the
// sliding-side loads are contiguous across the block (SIMD lanes across
// lags). Every entry point — packed_correlation, packed_correlation_batch,
// packed_best — funnels into the same per-lane accumulation loop,
// compiled WITHOUT value-changing FP options (no -ffast-math, and
// -ffp-contract=off), so each lag's moment sums accumulate over the window
// metres in source order regardless of batch shape. Bit-identical scores
// for identical inputs are therefore a language-level guarantee, not a
// compiler accident (see DESIGN.md §11 "Kernel layout").

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/correlation.hpp"
#include "core/types.hpp"

namespace rups::core {

/// RSSI values are shifted by this at pack time so the float moment sums in
/// the kernel centre near zero — without it, sxx - sx^2/n cancels
/// catastrophically in single precision (values ~-90 dBm, windows of ~100
/// samples) and near-constant channels produce garbage correlations.
inline constexpr float kPackShiftDbm = 80.0f;

/// Borrowed view of a packed trajectory region: channel-major rows of
/// pre-masked values (0 where unusable) and validity. Every validity slot
/// is exactly 0.0f or 1.0f, which the kernel relies on: a mask product is
/// then 0 or 1, so masking is exact and squares can be formed on the fly.
/// Row of channel c starts at x + c*stride; columns are metres.
struct PackedSpan {
  const float* x = nullptr;
  const float* v = nullptr;
  std::size_t stride = 0;    ///< floats between consecutive channel rows
  std::size_t metres = 0;    ///< columns in the view
  std::size_t channels = 0;  ///< rows
};

/// Owning, incrementally-maintained pack of one trajectory. sync() mirrors
/// the trajectory's current retained range, keyed by the trajectory's
/// identity() and revision() (DESIGN §10):
///   * same identity, no edit since the last sync: only the appended
///     columns are packed; front eviction just advances the view base (no
///     data movement),
///   * same identity, an edit since the last sync (mutable_power(), the
///     binder's retro-fill): the appended columns plus a trailing
///     `volatile_suffix_m` region are re-packed — the binder back-fills up
///     to its interpolation gap behind the newest metre,
///   * a different identity (another trajectory, a copy, an assignment, a
///     rebase) or a width change: a full repack.
/// The backing buffer over-allocates by ~25% so eviction-driven compaction
/// is amortized O(channels) per appended metre.
class PackedContext {
 public:
  /// Default re-pack horizon; must cover the binder's retro-fill reach
  /// (TrajectoryBinder::Config::max_interpolation_gap_m, default 40).
  static constexpr std::size_t kDefaultVolatileSuffixM = 48;

  PackedContext() = default;

  /// Bring the pack in sync with `t`. Returns the number of columns
  /// (re)packed: size() on a full repack, the appended metres on an
  /// append-only step, plus up to volatile_suffix_m after an edit.
  std::size_t sync(const ContextTrajectory& t,
                   std::size_t volatile_suffix_m = kDefaultVolatileSuffixM);

  [[nodiscard]] PackedSpan span() const noexcept {
    return {x_.data() + base_, v_.data() + base_, stride_, metres_,
            channels_};
  }

  [[nodiscard]] bool empty() const noexcept { return metres_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return metres_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::uint64_t first_metre() const noexcept {
    return first_metre_;
  }
  /// True when the pack holds `t`'s current values: the same trajectory
  /// state (identity and revision) over the same retained range.
  [[nodiscard]] bool in_sync_with(const ContextTrajectory& t) const noexcept {
    return identity_ == t.identity() && revision_ == t.revision() &&
           channels_ == t.channels() && metres_ == t.size() &&
           (t.empty() || first_metre_ == t.first_metre());
  }

  void clear() noexcept {
    base_ = metres_ = 0;
    first_metre_ = 0;
    identity_ = revision_ = 0;
  }

 private:
  void pack_column(const ContextTrajectory& t, std::size_t index);
  void compact() noexcept;

  std::size_t channels_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t first_metre_ = 0;  ///< odometer metre of column `base_`
  std::size_t base_ = 0;           ///< first live column in the buffer
  std::size_t metres_ = 0;         ///< live columns
  std::uint64_t identity_ = 0;     ///< trajectory identity last synced
  std::uint64_t revision_ = 0;     ///< trajectory revision last synced
  std::vector<float> x_, v_;
};

/// One-shot dense pack of a channel subset over one stretch — the
/// historical per-query layout: row i holds channels[i] restricted to
/// [from, from+len). Cheap to build exactly once per slide pass; callers
/// without a maintained PackedContext use this.
class SubsetPack {
 public:
  SubsetPack() = default;
  SubsetPack(const ContextTrajectory& t, std::span<const std::size_t> channels,
             std::size_t from, std::size_t len);

  /// View with stride == len and channels == subset size (row indices are
  /// subset positions, not channel ids).
  [[nodiscard]] PackedSpan span() const noexcept {
    return {x_.data(), v_.data(), metres_, metres_, k_};
  }

 private:
  std::size_t metres_ = 0;
  std::size_t k_ = 0;
  std::vector<float> x_, v_;
};

/// A pack plus its row map: rows[kk] is the row index of the kk-th checking
/// channel inside `span`. For an all-channel PackedContext the rows are the
/// selected channel ids themselves; for a SubsetPack they are 0..k-1. The
/// kernel below only ever sees (span, rows) pairs, so both layouts run the
/// same compiled loop over the same values.
struct PackedView {
  PackedSpan span{};
  std::span<const std::size_t> rows{};
};

/// Lane width of the lag-batched kernel: one window traversal scores this
/// many sliding positions. 16 keeps the per-channel float accumulator
/// working set (6 sums x 16 lanes) inside the vector register file on AVX2
/// and x86-64-v4 targets while still amortizing the fixed-row loads 16x.
/// The kernel is compiled at this width and at 1, the single-position
/// block (DESIGN §11 "Why B = 16").
inline constexpr std::size_t kLagBlock = 16;

/// Blocks a scan of `pos_count` positions of a `window` on a sliding span
/// of `sliding_metres` runs (the `syn.kernel_blocks` count): one per
/// kLagBlock positions, rounded up, unless the range is a lone position or
/// the span is too short to hold a full block, which score one
/// single-position block per position.
[[nodiscard]] constexpr std::size_t packed_batch_blocks(
    std::size_t pos_count, std::size_t window,
    std::size_t sliding_metres) noexcept {
  if (pos_count == 1 || sliding_metres + 1 < window + kLagBlock) {
    return pos_count;
  }
  return (pos_count + kLagBlock - 1) / kLagBlock;
}

/// Trajectory correlation (paper eq. (2)) between the fixed window
/// [fixed_start, fixed_start+window) of `fixed` and the sliding window
/// [pos, pos+window) of `sliding`, over fixed.rows/sliding.rows (must have
/// equal length: entry kk of each names the kk-th checking channel's row).
/// Identical semantics to trajectory_correlation(); this is the float fast
/// path the SYN search runs on. The single-position block — bit-identical
/// to any packed_correlation_batch() lane scoring the same position, and
/// the oracle the batch is tested against.
[[nodiscard]] double packed_correlation(
    const PackedView& fixed, std::size_t fixed_start, const PackedView& sliding,
    std::size_t pos, std::size_t window,
    const TrajectoryCorrelationConfig& config);

/// Lag-batched correlation: scores the `pos_count` consecutive sliding
/// positions pos_lo, pos_lo + 1, ... into out_scores[q], each exactly equal
/// (bit-identical) to the corresponding packed_correlation() call. One
/// traversal of the checking window scores kLagBlock positions at a time:
/// fixed-row values are loaded once and broadcast, the 16 sliding-side
/// loads per metre are contiguous across the block — SIMD lanes across
/// lags instead of across metres, which is why no value-changing FP flags
/// are needed to vectorize. The blocks are those packed_best() runs
/// (packed_batch_blocks; DESIGN §11). Caller must guarantee every scored
/// window fits: pos_lo + pos_count - 1 + window <= sliding.span.metres.
/// Tests and benches read every lane through it; the SYN search calls
/// packed_best().
void packed_correlation_batch(const PackedView& fixed, std::size_t fixed_start,
                              const PackedView& sliding, std::size_t pos_lo,
                              std::size_t pos_count, std::size_t window,
                              const TrajectoryCorrelationConfig& config,
                              double* out_scores);

/// Best position of a scan.
struct ScanBest {
  double correlation = -2.0;
  std::size_t position = 0;
  bool valid = false;
  std::size_t pruned_blocks = 0;  ///< blocks stopped before their last channel
};

/// Exact pruning of a packed_best() scan.
struct ScanPruning {
  /// A result that does not strictly beat this score is dropped.
  double bar = -std::numeric_limits<double>::infinity();
  /// Position whose block is scored first (clamped into the range); the
  /// range's first position when unset.
  std::optional<std::size_t> seed;
};

/// The best score over the positions [pos_lo, pos_lo + pos_count) and its
/// lowest position, exactly as an ascending strict-`>` pick over
/// packed_correlation_batch's scores; an empty range gives valid = false.
/// With `pruning` the search is exact provided every score is finite (it
/// is for finite pack values): the block holding the seed is scored
/// first, then the others in ascending order, and each one stops, every 4
/// channels, as soon as no lane can reach the larger of the bar and the
/// best score so far, capped at 1.5 (DESIGN §11). A range whose best does
/// not strictly beat the bar then returns valid = false. Caller must
/// guarantee every scored window fits, as for packed_correlation_batch.
[[nodiscard]] ScanBest packed_best(const PackedView& fixed,
                                   std::size_t fixed_start,
                                   const PackedView& sliding,
                                   std::size_t pos_lo, std::size_t pos_count,
                                   std::size_t window,
                                   const TrajectoryCorrelationConfig& config,
                                   const ScanPruning* pruning = nullptr);

}  // namespace rups::core
