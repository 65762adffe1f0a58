#pragma once

// Quantized companion of the packed float correlation kernel. RSSI is dBm
// in a narrow physical range, and the paper's eq. (2) score is built from
// Pearson correlations — which are invariant under positive affine maps of
// either operand. So each pack can be quantized with one affine
// (offset, step) pair, q = round((x - offset) / step), and the kernel can
// run on small integers: the integer moment sums it needs
// (n, Σx, Σy, Σx², Σy², Σxy) are then EXACT, which buys two things the
// float kernel can never have:
//   * the reduction over window metres is freely reassociable — the
//     compiler/intrinsics may vectorize ALONG the window (vpmaddwd-style
//     dot products) instead of across lags, so each slide position is an
//     independent small-GEMM row C[b] = A · B[b..b+w) over the implicit
//     Toeplitz operand of the sliding pack;
//   * any batch shape, chunking or ISA produces bit-identical
//     integer sums, so the quantized path is deterministic by construction
//     (the only FP arithmetic is the per-channel epilogue, identical in
//     structure to the float kernel's and compiled with the same strict
//     flags).
// There is one storage width (int16) and one kernel. kInt16 and kInt8 are
// two grids on it: kInt8 only caps |q| at kQuantMax8 instead of
// kQuantMax16, so its exact sums — and scores — are the ones a dedicated
// 8-bit kernel would produce. The cost is a bounded score perturbation from
// rounding; DESIGN.md §15 derives the bound and tests/test_quant_kernel.cpp
// asserts it differentially against the float path. The float path itself
// is untouched (packed.{hpp,cpp}) and remains the strict default.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/correlation.hpp"
#include "core/packed.hpp"

namespace rups::core {

/// Kernel precision knob (SynConfig::precision). kFloat32 is the strict
/// bit-identical reference path; the integer grids trade a bounded score
/// error (see DESIGN §15) for ~2.2-2.5x kernel throughput over the float
/// batch kernel (measured at the paper point on the reference container).
/// kInt16 and kInt8 run the same int16 kernel; kInt8 is the coarser grid.
enum class KernelPrecision : std::uint8_t { kFloat32, kInt16, kInt8 };

/// Quantized magnitude caps, one per integer grid. int16 uses ±1023 (not
/// ±32767) so that every per-window integer moment sum fits int32 even at
/// the maximum supported window — which lets the SIMD kernels accumulate
/// and reduce entirely in 32-bit lanes: |Σ q_a·q_b| <= kQuantMaxWindowM *
/// 1023² < 2³¹.
inline constexpr int kQuantMax16 = 1023;
inline constexpr int kQuantMax8 = 127;
/// Largest window (metres) the quantized kernels accept (int32 overflow
/// bound for the int16 grid; RUPS windows are ~100).
inline constexpr std::size_t kQuantMaxWindowM = 2047;

/// Per-pack affine quantization map: q = round((x - offset) / step),
/// clamped to the grid. `x` here is the pack-shifted dB value (see
/// kPackShiftDbm), so `offset` is also in shifted dB.
struct QuantParams {
  double offset = 0.0;
  double step = 1.0;
};

/// Borrowed view of a quantized pack region: channel-major rows of
/// pre-masked quantized values (0 where unusable) and 0/1 validity, plus
/// the pack's affine map. Mirrors PackedSpan column-for-column.
struct QuantSpan {
  const std::int16_t* q = nullptr;
  const std::int16_t* v = nullptr;
  std::size_t stride = 0;
  std::size_t metres = 0;
  std::size_t channels = 0;
  QuantParams params{};
};

/// Span plus row map, the quantized analogue of PackedView.
struct QuantView {
  QuantSpan span{};
  std::span<const std::size_t> rows{};
};

/// Owning quantized mirror of a pack. Either built one-shot from any
/// PackedSpan (SubsetPack fallbacks, tests) or maintained incrementally
/// against a PackedContext: sync() re-quantizes only the grown/volatile
/// tail and advances the base on front eviction, exactly like the float
/// pack — EXCEPT when new data leaves the quantization grid, which forces
/// a full requantize with fresh params. The grid is built with ~25%
/// range headroom so steady-state appends essentially never trigger that.
/// `precision` picks the grid (kInt16 or kInt8); kFloat32 has no mirror
/// and is rejected with std::invalid_argument.
class QuantizedPack {
 public:
  QuantizedPack() = default;

  /// Full one-shot (re)quantization of `s` on the given grid. Non-finite
  /// values (fuzzed NaN/±inf inputs) are masked invalid; everything else
  /// is clamped onto the grid.
  void build(const PackedSpan& s, KernelPrecision precision);

  /// Mirror `pack`'s current span incrementally; returns the number of
  /// columns (re)quantized (everything on a full rebuild). Pass the same
  /// volatile_suffix_m the float pack is synced with.
  std::size_t sync(const PackedContext& pack, KernelPrecision precision,
                   std::size_t volatile_suffix_m =
                       PackedContext::kDefaultVolatileSuffixM);

  /// True when this mirror matches `pack`'s shape on the given grid —
  /// i.e. it was sync()ed against the pack's current state.
  [[nodiscard]] bool mirrors(const PackedContext& pack,
                             KernelPrecision precision) const noexcept;

  [[nodiscard]] KernelPrecision precision() const noexcept {
    return precision_;
  }
  [[nodiscard]] const QuantParams& params() const noexcept { return params_; }
  [[nodiscard]] bool empty() const noexcept { return metres_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return metres_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }

  [[nodiscard]] QuantSpan span() const noexcept {
    return {q_.data() + base_, v_.data() + base_, stride_,
            metres_,           channels_,         params_};
  }

  void clear() noexcept {
    base_ = metres_ = 0;
    first_metre_ = 0;
  }

 private:
  void quantize_column(const PackedSpan& s, std::size_t col, int qmax);
  void rebuild(const PackedSpan& s, std::uint64_t first_metre,
               KernelPrecision precision, std::size_t slack);
  void compact() noexcept;
  /// True when every finite valid value in columns [from, to) of `s` lands
  /// inside the current grid without clamping.
  [[nodiscard]] bool tail_in_range(const PackedSpan& s, std::size_t from,
                                   std::size_t to) const noexcept;

  KernelPrecision precision_ = KernelPrecision::kInt16;
  /// Set by sync(), cleared by build(): only a sync()ed pack may report
  /// mirrors() == true (a one-shot build has no trajectory identity).
  bool synced_shape_ = false;
  QuantParams params_{};
  std::size_t channels_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t first_metre_ = 0;
  std::size_t base_ = 0;
  std::size_t metres_ = 0;
  std::vector<std::int16_t> q_, v_;
};

/// Quantized trajectory correlation: same windowing, row-map, overlap and
/// variance-guard semantics as packed_correlation(), evaluated on the
/// quantized operands. The variance guard compares the DEQUANTIZED
/// variances (vq · step²) against the same 1e-2 dB² threshold, and the
/// overlap/min_channels decisions are exact integer counts — identical to
/// the float path's decisions on the same mask data. Requires
/// window <= kQuantMaxWindowM.
[[nodiscard]] double quantized_correlation(
    const QuantView& fixed, std::size_t fixed_start, const QuantView& sliding,
    std::size_t pos, std::size_t window,
    const TrajectoryCorrelationConfig& config);

/// Batched quantized scan: scores the `pos_count` consecutive positions
/// from pos_lo into out_scores[q]. Unlike the float kernel there is no
/// lane-shape caveat: every position is an independent exact-integer dot
/// along the window, so any batch or chunk shape is bit-identical to
/// per-position quantized_correlation() calls. Caller guarantees every
/// window fits: pos_lo + pos_count - 1 + window <= span metres.
void quantized_correlation_batch(const QuantView& fixed,
                                 std::size_t fixed_start,
                                 const QuantView& sliding, std::size_t pos_lo,
                                 std::size_t pos_count, std::size_t window,
                                 const TrajectoryCorrelationConfig& config,
                                 double* out_scores);

/// One fixed/sliding operand pair at the precision a seek runs at. The
/// float views are always populated (they carry the authoritative shapes
/// and serve the strict default); the quantized views are populated iff
/// precision != kFloat32. SynSeeker::scan_pair builds every one — for the
/// full search's two passes and for SynCache's re-verification band — so
/// one seek switches precision in exactly one place.
struct ScanPair {
  KernelPrecision precision = KernelPrecision::kFloat32;
  PackedView fixed{};
  std::size_t fixed_start = 0;
  PackedView sliding{};
  QuantView qfixed{};
  QuantView qsliding{};
};

/// Precision-dispatching scan: packed_correlation_batch at kFloat32,
/// quantized_correlation_batch otherwise.
void scan_correlation_batch(const ScanPair& pair, std::size_t pos_lo,
                            std::size_t pos_count, std::size_t window,
                            const TrajectoryCorrelationConfig& config,
                            double* out_scores);

namespace detail {

/// Six exact moment sums (n, sx, sy, sxx, syy, sxy) per lag, written
/// sum-major into sums[j * kLagBlock + b]. The along-window pass scores
/// `count` <= kLagBlock consecutive lags (a sub-block remainder); the
/// GEMM-shaped pass scores a full block of kLagBlock.
using QuantChannelPassFn = void (*)(const std::int16_t* fq,
                                    const std::int16_t* fv,
                                    const std::int16_t* sq0,
                                    const std::int16_t* sv0, std::size_t count,
                                    std::size_t window, std::int32_t* sums);
using QuantLagPassFn = void (*)(const std::int16_t* fq, const std::int16_t* fv,
                                const std::int16_t* sq0,
                                const std::int16_t* sv0, std::size_t window,
                                std::int32_t* sums);

/// One ISA build of the integer window kernel.
struct QuantKernelVariant {
  const char* name;
  bool (*supported)();
  QuantChannelPassFn channel_pass;
  QuantLagPassFn lag_pass;
};

/// Every variant compiled in, widest ISA first; the last entry is the
/// portable generic pass and is always supported. The kernel runs the
/// first supported entry. All entries produce identical integer sums, so
/// the table is exposed only for tests that run each of them.
[[nodiscard]] std::span<const QuantKernelVariant> quant_kernel_variants();

}  // namespace detail

}  // namespace rups::core
