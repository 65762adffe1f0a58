#pragma once

// Packed, reusable representation of a ContextTrajectory for the SYN-search
// kernel. Historically SynSeeker::slide() re-extracted a dense channel-major
// copy of BOTH trajectories on every call — per query, per pass, per recency
// offset — even when the trajectory had only grown by a metre since the last
// query. PackedContext packs ALL channels once (so the pack is valid for any
// checking-window channel subset) and extends incrementally as the
// trajectory grows, which is what makes SYN caching and fleet-scale batching
// (one ego pack shared by N neighbour queries) cheap.
//
// The correlation kernels live in packed.cpp and are LAG-BATCHED: one
// traversal of the checking window scores a block of kLagBlock sliding
// positions, with the fixed-row values loaded once and broadcast while the
// sliding-side loads are contiguous across the block (SIMD lanes across
// lags). Every entry point — packed_correlation, packed_correlation_batch,
// the tuning widths — funnels into the same per-lane accumulation loop,
// compiled WITHOUT value-changing FP options (no -ffast-math, and
// -ffp-contract=off), so each lag's moment sums accumulate over the window
// metres in source order regardless of batch shape. Bit-identical scores
// for identical inputs are therefore a language-level guarantee, not a
// compiler accident (see DESIGN.md §11 "Kernel layout").

#include <cstddef>
#include <cstdint>
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
/// pre-masked values (0 where unusable), their squares, and 0/1 validity.
/// Row of channel c starts at x + c*stride; columns are metres.
struct PackedSpan {
  const float* x = nullptr;
  const float* x2 = nullptr;
  const float* v = nullptr;
  std::size_t stride = 0;    ///< floats between consecutive channel rows
  std::size_t metres = 0;    ///< columns in the view
  std::size_t channels = 0;  ///< rows
};

/// Owning, incrementally-maintained pack of one trajectory. sync() mirrors
/// the trajectory's current retained range:
///   * pure growth appends new columns (O(channels) per new metre),
///   * front eviction just advances the view base (no data movement),
///   * a trailing `volatile_suffix_m` region is unconditionally re-packed —
///     the TrajectoryBinder retro-fills interpolated channels up to its
///     interpolation gap behind the newest metre, so those columns may have
///     changed since the last sync,
///   * anything else (width change, shrink, gap, rebase) falls back to a
///     full repack.
/// The backing buffer over-allocates by ~25% so eviction-driven compaction
/// is amortized O(channels) per appended metre.
class PackedContext {
 public:
  /// Default re-pack horizon; must cover the binder's retro-fill reach
  /// (TrajectoryBinder::Config::max_interpolation_gap_m, default 40).
  static constexpr std::size_t kDefaultVolatileSuffixM = 48;

  PackedContext() = default;

  /// Bring the pack in sync with `t`. Returns the number of columns
  /// (re)packed — size() on a full repack, ~volatile_suffix_m + growth in
  /// steady state.
  std::size_t sync(const ContextTrajectory& t,
                   std::size_t volatile_suffix_m = kDefaultVolatileSuffixM);

  [[nodiscard]] PackedSpan span() const noexcept {
    return {x_.data() + base_, x2_.data() + base_, v_.data() + base_,
            stride_,           metres_,            channels_};
  }

  [[nodiscard]] bool empty() const noexcept { return metres_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return metres_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::uint64_t first_metre() const noexcept {
    return first_metre_;
  }
  /// True when the pack currently mirrors `t`'s retained range.
  [[nodiscard]] bool in_sync_with(const ContextTrajectory& t) const noexcept {
    return channels_ == t.channels() && metres_ == t.size() &&
           (t.empty() || first_metre_ == t.first_metre());
  }

  void clear() noexcept {
    base_ = metres_ = 0;
    first_metre_ = 0;
  }

 private:
  void pack_column(const ContextTrajectory& t, std::size_t index);
  void compact() noexcept;

  std::size_t channels_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t first_metre_ = 0;  ///< odometer metre of column `base_`
  std::size_t base_ = 0;           ///< first live column in the buffer
  std::size_t metres_ = 0;         ///< live columns
  std::vector<float> x_, x2_, v_;
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
    return {x_.data(), x2_.data(), v_.data(), metres_, metres_, k_};
  }

 private:
  std::size_t metres_ = 0;
  std::size_t k_ = 0;
  std::vector<float> x_, x2_, v_;
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

/// Lane width of the production lag-batched kernel: one window traversal
/// scores this many sliding positions. 16 keeps the per-channel float
/// accumulator working set (6 sums x 16 lanes) inside the vector register
/// file on AVX2 and x86-64-v4 targets while still amortizing the fixed-row
/// loads 16x; callers that chunk scans should align chunk lengths to this
/// so only the final chunk pays a partial block.
inline constexpr std::size_t kLagBlock = 16;

/// Trajectory correlation (paper eq. (2)) between the fixed window
/// [fixed_start, fixed_start+window) of `fixed` and the sliding window
/// [pos, pos+window) of `sliding`, over fixed.rows/sliding.rows (must have
/// equal length: entry kk of each names the kk-th checking channel's row).
/// Identical semantics to trajectory_correlation(); this is the float fast
/// path the SYN search runs on. Single-position wrapper over the lane
/// kernel — bit-identical to any packed_correlation_batch() lane scoring
/// the same position.
[[nodiscard]] double packed_correlation(
    const PackedView& fixed, std::size_t fixed_start, const PackedView& sliding,
    std::size_t pos, std::size_t window,
    const TrajectoryCorrelationConfig& config);

/// Lag-batched correlation: scores the `pos_count` consecutive sliding
/// positions pos_lo, pos_lo + 1, ... into out_scores[q], each exactly equal
/// (bit-identical) to the corresponding packed_correlation() call. One
/// traversal of the checking window scores kLagBlock positions at a time:
/// fixed-row values are loaded once and broadcast, the B sliding-side loads
/// per metre are contiguous across the block — SIMD lanes across lags
/// instead of across metres, which is why no value-changing FP flags are
/// needed to vectorize. A trailing partial block is rescored as an
/// overlapped full block ending at the last position (recomputed lanes
/// reproduce the same bits); when pos_count < kLagBlock each position runs
/// as a single-position block. Caller must guarantee every scored window
/// fits: pos_lo + pos_count - 1 + window <= sliding.span.metres.
void packed_correlation_batch(const PackedView& fixed, std::size_t fixed_start,
                              const PackedView& sliding, std::size_t pos_lo,
                              std::size_t pos_count, std::size_t window,
                              const TrajectoryCorrelationConfig& config,
                              double* out_scores);

/// Tuning/bench surface: packed_correlation_batch with an explicit lane
/// width. lanes must be 1, 4, 8 or 16 (1 = per-position scalar path, the
/// baseline the bench sweep compares against). All widths produce
/// bit-identical scores — the per-lane accumulation order never depends on
/// the block shape. Production callers use packed_correlation_batch().
void packed_correlation_batch_lanes(
    std::size_t lanes, const PackedView& fixed, std::size_t fixed_start,
    const PackedView& sliding, std::size_t pos_lo, std::size_t pos_count,
    std::size_t window, const TrajectoryCorrelationConfig& config,
    double* out_scores);

}  // namespace rups::core
