#pragma once

// Quantized (int16 / int8) companion of the packed float correlation
// kernel. RSSI is dBm in a narrow physical range, and the paper's eq. (2)
// score is built from Pearson correlations — which are invariant under
// positive affine maps of either operand. So each pack can be quantized
// with one affine (offset, step) pair, q = round((x - offset) / step), and
// the kernel can run on small integers: the integer moment sums it needs
// (n, Σx, Σy, Σx², Σy², Σxy) are then EXACT, which buys two things the
// float kernel can never have:
//   * the reduction over window metres is freely reassociable — the
//     compiler/intrinsics may vectorize ALONG the window (vpmaddwd-style
//     dot products) instead of across lags, so each slide position is an
//     independent small-GEMM row C[b] = A · B[b..b+w) over the implicit
//     Toeplitz operand of the sliding pack;
//   * any batch shape, stride, chunking or ISA produces bit-identical
//     integer sums, so the quantized path is deterministic by construction
//     (the only FP arithmetic is the per-channel epilogue, identical in
//     structure to the float kernel's and compiled with the same strict
//     flags).
// The cost is a bounded score perturbation from rounding; DESIGN.md §15
// derives the bound and tests/test_quant_kernel.cpp asserts it
// differentially against the float path. The float path itself is
// untouched (packed.{hpp,cpp}) and remains the strict default.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/correlation.hpp"
#include "core/packed.hpp"

namespace rups::core {

/// Kernel precision knob (SynConfig::precision). kFloat32 is the strict
/// bit-identical reference path; the integer paths trade a bounded score
/// error (see DESIGN §15) for ~2.2-2.5x kernel throughput over the float
/// batch kernel (measured at the paper point on the reference container).
enum class KernelPrecision : std::uint8_t { kFloat32, kInt16, kInt8 };

enum class QuantBits : std::uint8_t { kInt16, kInt8 };

/// Quantized magnitude caps. int16 uses ±1023 (not ±32767) so that every
/// per-window integer moment sum fits int32 even at the maximum supported
/// window — which lets the SIMD kernels accumulate and reduce entirely in
/// 32-bit lanes: |Σ q_a·q_b| <= kQuantMaxWindowM * 1023² < 2³¹.
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
template <typename T>
struct QuantSpanT {
  const T* q = nullptr;
  const T* v = nullptr;
  std::size_t stride = 0;
  std::size_t metres = 0;
  std::size_t channels = 0;
  QuantParams params{};
};
using QuantSpan16 = QuantSpanT<std::int16_t>;
using QuantSpan8 = QuantSpanT<std::int8_t>;

/// Span plus row map, the quantized analogue of PackedView.
template <typename T>
struct QuantViewT {
  QuantSpanT<T> span{};
  std::span<const std::size_t> rows{};
};
using QuantView16 = QuantViewT<std::int16_t>;
using QuantView8 = QuantViewT<std::int8_t>;

/// Owning quantized mirror of a pack. Either built one-shot from any
/// PackedSpan (SubsetPack fallbacks, tests) or maintained incrementally
/// against a PackedContext: sync() re-quantizes only the grown/volatile
/// tail and advances the base on front eviction, exactly like the float
/// pack — EXCEPT when new data leaves the quantization grid, which forces
/// a full requantize with fresh params. The grid is built with ~25%
/// range headroom so steady-state appends essentially never trigger that.
class QuantizedPack {
 public:
  QuantizedPack() = default;

  /// Full one-shot (re)quantization of `s` at the given width. Non-finite
  /// values (fuzzed NaN/±inf inputs) are masked invalid; everything else
  /// is clamped onto the grid.
  void build(const PackedSpan& s, QuantBits bits);

  /// Mirror `pack`'s current span incrementally; returns the number of
  /// columns (re)quantized (everything on a full rebuild). Pass the same
  /// volatile_suffix_m the float pack is synced with.
  std::size_t sync(const PackedContext& pack, QuantBits bits,
                   std::size_t volatile_suffix_m =
                       PackedContext::kDefaultVolatileSuffixM);

  /// True when this mirror matches `pack`'s shape at the given width —
  /// i.e. it was sync()ed against the pack's current state.
  [[nodiscard]] bool mirrors(const PackedContext& pack,
                             QuantBits bits) const noexcept;

  [[nodiscard]] QuantBits bits() const noexcept { return bits_; }
  [[nodiscard]] const QuantParams& params() const noexcept { return params_; }
  [[nodiscard]] bool empty() const noexcept { return metres_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return metres_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }

  /// Views; only the width matching bits() has data.
  [[nodiscard]] QuantSpan16 span16() const noexcept {
    return {q16_.data() + base_, v16_.data() + base_, stride_,
            metres_,             channels_,           params_};
  }
  [[nodiscard]] QuantSpan8 span8() const noexcept {
    return {q8_.data() + base_, v8_.data() + base_, stride_,
            metres_,            channels_,          params_};
  }

  void clear() noexcept {
    base_ = metres_ = 0;
    first_metre_ = 0;
  }

 private:
  template <typename T>
  void quantize_column(const PackedSpan& s, std::size_t col, int qmax,
                       std::vector<T>& q, std::vector<T>& v);
  void rebuild(const PackedSpan& s, std::uint64_t first_metre, QuantBits bits,
               std::size_t slack);
  void compact() noexcept;
  /// True when every finite valid value in columns [from, to) of `s` lands
  /// inside the current grid without clamping.
  [[nodiscard]] bool tail_in_range(const PackedSpan& s, std::size_t from,
                                   std::size_t to) const noexcept;

  QuantBits bits_ = QuantBits::kInt16;
  /// Set by sync(), cleared by build(): only a sync()ed pack may report
  /// mirrors() == true (a one-shot build has no trajectory identity).
  bool synced_shape_ = false;
  QuantParams params_{};
  std::size_t channels_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t first_metre_ = 0;
  std::size_t base_ = 0;
  std::size_t metres_ = 0;
  std::vector<std::int16_t> q16_, v16_;
  std::vector<std::int8_t> q8_, v8_;
};

/// Quantized trajectory correlation: same windowing, row-map, overlap and
/// variance-guard semantics as packed_correlation(), evaluated on the
/// quantized operands. The variance guard compares the DEQUANTIZED
/// variances (vq · step²) against the same 1e-2 dB² threshold, and the
/// overlap/min_channels decisions are exact integer counts — identical to
/// the float path's decisions on the same mask data. Requires
/// window <= kQuantMaxWindowM.
template <typename T>
[[nodiscard]] double quantized_correlation(
    const QuantViewT<T>& fixed, std::size_t fixed_start,
    const QuantViewT<T>& sliding, std::size_t pos, std::size_t window,
    const TrajectoryCorrelationConfig& config);

/// Batched quantized scan: scores pos_lo + q*pos_stride_m for q in
/// [0, pos_count) into out_scores[q]. Unlike the float kernel there is no
/// lane-shape caveat: every position is an independent exact-integer dot
/// along the window, so any batch/stride/chunk shape is bit-identical to
/// per-position quantized_correlation() calls — strided grids cost the
/// same per position as contiguous ones. Caller guarantees every window
/// fits: pos_lo + (pos_count-1)*pos_stride_m + window <= span metres.
template <typename T>
void quantized_correlation_batch(const QuantViewT<T>& fixed,
                                 std::size_t fixed_start,
                                 const QuantViewT<T>& sliding,
                                 std::size_t pos_lo, std::size_t pos_count,
                                 std::size_t window,
                                 const TrajectoryCorrelationConfig& config,
                                 double* out_scores,
                                 std::size_t pos_stride_m = 1);

/// One fixed/sliding operand pair at the precision a seek runs at. The
/// float views are always populated (they carry the authoritative shapes
/// and serve the strict default); the quantized views of the matching
/// width are populated iff precision != kFloat32. SynSeeker::scan_pair
/// builds every one — for the full search's two passes and for SynCache's
/// re-verification band — so one seek switches precision in exactly one
/// place.
struct ScanPair {
  KernelPrecision precision = KernelPrecision::kFloat32;
  PackedView fixed{};
  std::size_t fixed_start = 0;
  PackedView sliding{};
  QuantView16 qfixed16{};
  QuantView16 qsliding16{};
  QuantView8 qfixed8{};
  QuantView8 qsliding8{};
};

/// Precision-dispatching scan: packed_correlation_batch at kFloat32,
/// quantized_correlation_batch<T> otherwise.
void scan_correlation_batch(const ScanPair& pair, std::size_t pos_lo,
                            std::size_t pos_count, std::size_t window,
                            const TrajectoryCorrelationConfig& config,
                            double* out_scores, std::size_t pos_stride_m = 1);

}  // namespace rups::core
