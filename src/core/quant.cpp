#include "core/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <stdexcept>

#include "core/isa_clones.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// Like packed.cpp this TU is compiled without value-changing FP options
// (-ffp-contract=off, no -ffast-math) — but here that only matters for the
// per-channel double epilogue: the window reduction itself is exact integer
// arithmetic, so the ISA variants below are free to vectorize ALONG the
// window and still produce bit-identical moment sums. Determinism of the
// quantized path therefore never depends on which variant the dispatcher
// picks.

namespace rups::core {

namespace {

/// |q| cap of an integer grid.
[[nodiscard]] int qmax_for(KernelPrecision precision) noexcept {
  return precision == KernelPrecision::kInt8 ? kQuantMax8 : kQuantMax16;
}

void require_grid(KernelPrecision precision) {
  if (precision == KernelPrecision::kFloat32) {
    throw std::invalid_argument("QuantizedPack: kFloat32 has no integer grid");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// QuantizedPack
// ---------------------------------------------------------------------------

void QuantizedPack::quantize_column(const PackedSpan& s, std::size_t col,
                                    int qmax) {
  const double offset = params_.offset;
  const double step = params_.step;
  const std::size_t dst = base_ + col;
  for (std::size_t c = 0; c < channels_; ++c) {
    const float x = s.x[c * s.stride + col];
    const bool valid = s.v[c * s.stride + col] != 0.0f && std::isfinite(x);
    std::int16_t qi = 0;
    if (valid) {
      // Clamp BEFORE rounding: lround on an out-of-range or non-finite
      // argument is unspecified, and fuzzed inputs can put d anywhere.
      const double d = (static_cast<double>(x) - offset) / step;
      if (d >= static_cast<double>(qmax)) {
        qi = static_cast<std::int16_t>(qmax);
      } else if (d <= static_cast<double>(-qmax)) {
        qi = static_cast<std::int16_t>(-qmax);
      } else {
        qi = static_cast<std::int16_t>(std::lround(d));
      }
    }
    q_[c * stride_ + dst] = qi;
    v_[c * stride_ + dst] = valid ? 1 : 0;
  }
}

void QuantizedPack::rebuild(const PackedSpan& s, std::uint64_t first_metre,
                            KernelPrecision precision, std::size_t slack) {
  precision_ = precision;
  channels_ = s.channels;
  const std::size_t want = s.metres + slack;
  stride_ = want + std::max<std::size_t>(64, want / 4);
  base_ = 0;
  first_metre_ = first_metre;
  metres_ = s.metres;

  // Grid: midpoint offset, half-range + 25% headroom + 0.5 dB margin so
  // steady-state appends stay on the grid (and step can never be 0).
  float lo = 0.0f;
  float hi = 0.0f;
  bool any = false;
  for (std::size_t c = 0; c < s.channels; ++c) {
    const float* x = s.x + c * s.stride;
    const float* v = s.v + c * s.stride;
    for (std::size_t i = 0; i < s.metres; ++i) {
      if (v[i] == 0.0f || !std::isfinite(x[i])) continue;
      if (!any) {
        lo = hi = x[i];
        any = true;
      } else {
        lo = std::min(lo, x[i]);
        hi = std::max(hi, x[i]);
      }
    }
  }
  const int qmax = qmax_for(precision);
  if (any) {
    params_.offset =
        (static_cast<double>(lo) + static_cast<double>(hi)) * 0.5;
    const double half =
        (static_cast<double>(hi) - static_cast<double>(lo)) * 0.5;
    params_.step = (half * 1.25 + 0.5) / static_cast<double>(qmax);
  } else {
    params_ = {};
  }

  q_.assign(channels_ * stride_, 0);
  v_.assign(channels_ * stride_, 0);
  for (std::size_t i = 0; i < metres_; ++i) quantize_column(s, i, qmax);
}

void QuantizedPack::build(const PackedSpan& s, KernelPrecision precision) {
  require_grid(precision);
  rebuild(s, 0, precision, 0);
  synced_shape_ = false;
}

bool QuantizedPack::mirrors(const PackedContext& pack,
                            KernelPrecision precision) const noexcept {
  return synced_shape_ && precision_ == precision &&
         source_identity_ == pack.identity() &&
         source_revision_ == pack.revision() &&
         channels_ == pack.channels() && metres_ == pack.size() &&
         (pack.empty() || first_metre_ == pack.first_metre());
}

bool QuantizedPack::tail_in_range(const PackedSpan& s, std::size_t from,
                                  std::size_t to) const noexcept {
  // Values past the grid edge would clamp — round-trip error is then
  // unbounded, so the caller must requantize with fresh params instead.
  const double reach =
      params_.step * (static_cast<double>(qmax_for(precision_)) + 0.5);
  for (std::size_t c = 0; c < channels_; ++c) {
    const float* x = s.x + c * s.stride;
    const float* v = s.v + c * s.stride;
    for (std::size_t i = from; i < to; ++i) {
      if (v[i] == 0.0f || !std::isfinite(x[i])) continue;
      if (std::fabs(static_cast<double>(x[i]) - params_.offset) >= reach) {
        return false;
      }
    }
  }
  return true;
}

void QuantizedPack::compact() noexcept {
  if (base_ == 0) return;
  for (std::int16_t* buf : {q_.data(), v_.data()}) {
    for (std::size_t c = 0; c < channels_; ++c) {
      std::memmove(buf + c * stride_, buf + c * stride_ + base_,
                   metres_ * sizeof(std::int16_t));
    }
  }
  base_ = 0;
}

std::size_t QuantizedPack::sync(const PackedContext& pack,
                                KernelPrecision precision,
                                std::size_t volatile_suffix_m) {
  require_grid(precision);
  const PackedSpan s = pack.span();
  // The pack's source state says what changed since the last sync: the
  // same trajectory unedited only grew, an edit also rewrote the volatile
  // suffix, another trajectory is a rebuild.
  const bool same = synced_shape_ && source_identity_ == pack.identity();
  const bool edited = source_revision_ != pack.revision();
  source_identity_ = pack.identity();
  source_revision_ = pack.revision();
  if (pack.empty()) {
    precision_ = precision;
    channels_ = pack.channels();
    clear();
    synced_shape_ = true;
    return 0;
  }
  const std::uint64_t t_first = pack.first_metre();
  const std::uint64_t t_end = t_first + s.metres;
  const std::uint64_t packed_end = first_metre_ + metres_;

  const bool incremental =
      same && precision_ == precision && metres_ != 0 &&
      channels_ == s.channels && t_first >= first_metre_ &&
      t_first <= packed_end && t_end >= packed_end && s.metres <= stride_;
  if (!incremental) {
    rebuild(s, t_first, precision, 0);
    synced_shape_ = true;
    return metres_;
  }

  const auto evicted = static_cast<std::size_t>(t_first - first_metre_);
  base_ += evicted;
  metres_ -= evicted;
  first_metre_ = t_first;
  if (base_ + s.metres > stride_) compact();

  const std::size_t suffix = edited ? volatile_suffix_m : 0;
  const std::size_t keep = metres_ > suffix ? metres_ - suffix : 0;
  metres_ = s.metres;
  if (!tail_in_range(s, keep, metres_)) {
    rebuild(s, t_first, precision, 0);
    return metres_;
  }
  const int qmax = qmax_for(precision_);
  for (std::size_t i = keep; i < metres_; ++i) quantize_column(s, i, qmax);
  return metres_ - keep;
}

// ---------------------------------------------------------------------------
// Integer window kernels. Two families, both computing the same six exact
// moment sums per (channel, lag) over the window:
//   n   = Σ fv·sv        sx  = Σ (fq·sv)       sy  = Σ (sq·fv)
//   sxx = Σ (fq·sv)·fq   syy = Σ (sq·fv)·sq    sxy = Σ fq·sq
// (fq/sq are pre-masked — 0 where invalid — so every product already runs
// over the jointly-valid metres.) Results are written SUM-MAJOR,
// sums[j * kLagBlock + b], so the double epilogue walks each sum with unit
// stride across lags and auto-vectorizes.
//
//   * lag_pass_*: the GEMM-shaped path for kLagBlock CONSECUTIVE lags.
//     vpmaddwd consumes metre PAIRS: broadcast the fixed pair
//     (fq[i], fq[i+1]) across dword lanes and load the sliding operand at
//     two element-staggered offsets, so even lags accumulate in one half of
//     the register and odd lags in the other — each dword lane IS one
//     lag's running sum, and the pass ends with plain (deinterleaving)
//     stores instead of six horizontal reductions per lag. This is where
//     the quantized speedup over the float kernel comes from.
//   * channel_pass_*: the along-window path for remainders shorter than a
//     block; it vectorizes one lag's window reduction and reduces
//     horizontally.
//
// Every variant accumulates identical integers: with window <=
// kQuantMaxWindowM and |q| <= kQuantMax16 every sum fits int32
// (DESIGN §15), so chunk shape, ISA and path choice can never change a
// score bit.
// ---------------------------------------------------------------------------

namespace {

/// Six sums for `count` consecutive lags, written sum-major:
/// sums[j * kLagBlock + b] for j in (n, sx, sy, sxx, syy, sxy).
void channel_pass_generic(const std::int16_t* fq, const std::int16_t* fv,
                          const std::int16_t* sq0, const std::int16_t* sv0,
                          std::size_t count, std::size_t window,
                          std::int32_t* sums) {
  for (std::size_t b = 0; b < count; ++b) {
    const std::int16_t* sq = sq0 + b;
    const std::int16_t* sv = sv0 + b;
    std::int32_t n = 0, sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (std::size_t i = 0; i < window; ++i) {
      const std::int32_t mf = static_cast<std::int32_t>(fq[i]) * sv[i];
      const std::int32_t ms = static_cast<std::int32_t>(sq[i]) * fv[i];
      n += static_cast<std::int32_t>(fv[i]) * sv[i];
      sx += mf;
      sy += ms;
      sxx += mf * fq[i];
      syy += ms * sq[i];
      sxy += mf * sq[i];
    }
    sums[0 * kLagBlock + b] = n;
    sums[1 * kLagBlock + b] = sx;
    sums[2 * kLagBlock + b] = sy;
    sums[3 * kLagBlock + b] = sxx;
    sums[4 * kLagBlock + b] = syy;
    sums[5 * kLagBlock + b] = sxy;
  }
}

/// kLagBlock consecutive lags, generic fallback for the GEMM-shaped path.
void lag_pass_generic(const std::int16_t* fq, const std::int16_t* fv,
                      const std::int16_t* sq0, const std::int16_t* sv0,
                      std::size_t window, std::int32_t* sums) {
  channel_pass_generic(fq, fv, sq0, sv0, kLagBlock, window, sums);
}

bool always_supported() { return true; }

#if defined(__x86_64__) && defined(__GNUC__)

/// Folds one (odd, final) window metre into all kLagBlock lag sums —
/// scalar and exact, so splitting it off the vector pair loop can never
/// change the totals.
inline void lag_tail_metre(const std::int16_t* fq, const std::int16_t* fv,
                           const std::int16_t* sq0, const std::int16_t* sv0,
                           std::size_t i, std::int32_t* sums) {
  for (std::size_t b = 0; b < kLagBlock; ++b) {
    const std::int32_t mf = static_cast<std::int32_t>(fq[i]) * sv0[b + i];
    const std::int32_t ms = static_cast<std::int32_t>(sq0[b + i]) * fv[i];
    sums[0 * kLagBlock + b] += static_cast<std::int32_t>(fv[i]) * sv0[b + i];
    sums[1 * kLagBlock + b] += mf;
    sums[2 * kLagBlock + b] += ms;
    sums[3 * kLagBlock + b] += mf * fq[i];
    sums[4 * kLagBlock + b] += ms * sq0[b + i];
    sums[5 * kLagBlock + b] += mf * sq0[b + i];
  }
}

/// The fixed metre pair (p[0], p[1]) packed little-endian into one dword,
/// ready for vpbroadcastd.
inline std::int32_t pack_pair(const std::int16_t* p) {
  std::int32_t d;
  std::memcpy(&d, p, sizeof(d));
  return d;
}

bool has_avx2() { return __builtin_cpu_supports("avx2"); }
bool has_avx512bw() { return __builtin_cpu_supports("avx512bw"); }

// GCC 12 reports a spurious -Wmaybe-uninitialized from the masked/unaligned
// AVX-512 load intrinsics' internal temporary (GCC PR105593), and a
// spurious -Wuninitialized for _mm512_castsi256_si512's intentionally
// undefined upper half (immediately overwritten by inserti64x4); the code
// is pure loads into fresh __m512i values.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/// Scalar remainder of the AVX2 along-window pass: integer addition is
/// associative, so folding the tail into the vector totals afterwards is
/// exact — the split point never changes the sums. Adds into lag b's
/// sum-major slots.
inline void scalar_tail(const std::int16_t* fq, const std::int16_t* fv,
                        const std::int16_t* sq, const std::int16_t* sv,
                        std::size_t from, std::size_t window,
                        std::int32_t* sums, std::size_t b) {
  for (std::size_t i = from; i < window; ++i) {
    const std::int32_t mf = static_cast<std::int32_t>(fq[i]) * sv[i];
    const std::int32_t ms = static_cast<std::int32_t>(sq[i]) * fv[i];
    sums[0 * kLagBlock + b] += static_cast<std::int32_t>(fv[i]) * sv[i];
    sums[1 * kLagBlock + b] += mf;
    sums[2 * kLagBlock + b] += ms;
    sums[3 * kLagBlock + b] += mf * fq[i];
    sums[4 * kLagBlock + b] += ms * sq[i];
    sums[5 * kLagBlock + b] += mf * sq[i];
  }
}

__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  const __m128i s2 =
      _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  const __m128i s3 =
      _mm_add_epi32(s2, _mm_shuffle_epi32(s2, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s3);
}

/// One 16-wide int16 step of the six-sum accumulation (AVX2). The same
/// formulas serve both kernel families: along the window the int16 lanes
/// are metres of ONE lag (reduced horizontally afterwards), across lags
/// each dword lane is a metre PAIR of ONE lag (vpmaddwd's pairwise add IS
/// the window reduction).
#define RUPS_QUANT_STEP_256(vfq, vfv, vsq, vsv)                         \
  do {                                                                  \
    const __m256i mf = _mm256_mullo_epi16(vfq, vsv);                    \
    const __m256i ms = _mm256_mullo_epi16(vsq, vfv);                    \
    an = _mm256_add_epi32(an, _mm256_madd_epi16(vfv, vsv));             \
    asx = _mm256_add_epi32(asx, _mm256_madd_epi16(vfq, vsv));           \
    asy = _mm256_add_epi32(asy, _mm256_madd_epi16(vsq, vfv));           \
    asxx = _mm256_add_epi32(asxx, _mm256_madd_epi16(mf, vfq));          \
    asyy = _mm256_add_epi32(asyy, _mm256_madd_epi16(ms, vsq));          \
    asxy = _mm256_add_epi32(asxy, _mm256_madd_epi16(vfq, vsq));         \
  } while (0)

__attribute__((target("avx2"), noinline)) void channel_pass_avx2(
    const std::int16_t* fq, const std::int16_t* fv, const std::int16_t* sq0,
    const std::int16_t* sv0, std::size_t count, std::size_t window,
    std::int32_t* sums) {
  for (std::size_t b = 0; b < count; ++b) {
    const std::int16_t* sq = sq0 + b;
    const std::int16_t* sv = sv0 + b;
    __m256i an = _mm256_setzero_si256(), asx = an, asy = an, asxx = an,
            asyy = an, asxy = an;
    std::size_t i = 0;
    for (; i + 16 <= window; i += 16) {
      const __m256i vfq =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fq + i));
      const __m256i vfv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fv + i));
      const __m256i vsq =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sq + i));
      const __m256i vsv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sv + i));
      RUPS_QUANT_STEP_256(vfq, vfv, vsq, vsv);
    }
    sums[0 * kLagBlock + b] = hsum_epi32(an);
    sums[1 * kLagBlock + b] = hsum_epi32(asx);
    sums[2 * kLagBlock + b] = hsum_epi32(asy);
    sums[3 * kLagBlock + b] = hsum_epi32(asxx);
    sums[4 * kLagBlock + b] = hsum_epi32(asyy);
    sums[5 * kLagBlock + b] = hsum_epi32(asxy);
    scalar_tail(fq, fv, sq, sv, i, window, sums, b);
  }
}

/// Stores one accumulator's 8 even- or odd-parity lags into their
/// interleaved sum-major slots.
#define RUPS_LAG_SCATTER_256(acc, j)                                    \
  do {                                                                  \
    alignas(32) std::int32_t t[8];                                      \
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), (acc));           \
    for (std::size_t g = 0; g < 8; ++g) {                               \
      sums[(j) * kLagBlock + parity + 2 * g] = t[g];                    \
    }                                                                   \
  } while (0)

/// GEMM-shaped pass, AVX2, one parity: the 8 lags parity, parity+2, ...,
/// parity+14 of a 16-lag block live in the dword lanes of ymm
/// accumulators; each vpmaddwd consumes the window metre pair (i, i+1).
/// Split by parity because consecutive lags sit 2 bytes apart while dword
/// lanes step 4 — the odd lags are the same loads shifted one element.
__attribute__((target("avx2"), noinline)) void lag_parity_avx2(
    const std::int16_t* fq, const std::int16_t* fv, const std::int16_t* sq0,
    const std::int16_t* sv0, std::size_t window, std::int32_t* sums,
    std::size_t parity) {
  const std::int16_t* sq = sq0 + parity;
  const std::int16_t* sv = sv0 + parity;
  __m256i an = _mm256_setzero_si256(), asx = an, asy = an, asxx = an,
          asyy = an, asxy = an;
  for (std::size_t i = 0; i + 1 < window; i += 2) {
    const __m256i vfq = _mm256_set1_epi32(pack_pair(fq + i));
    const __m256i vfv = _mm256_set1_epi32(pack_pair(fv + i));
    const __m256i vsq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sq + i));
    const __m256i vsv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sv + i));
    RUPS_QUANT_STEP_256(vfq, vfv, vsq, vsv);
  }
  RUPS_LAG_SCATTER_256(an, 0);
  RUPS_LAG_SCATTER_256(asx, 1);
  RUPS_LAG_SCATTER_256(asy, 2);
  RUPS_LAG_SCATTER_256(asxx, 3);
  RUPS_LAG_SCATTER_256(asyy, 4);
  RUPS_LAG_SCATTER_256(asxy, 5);
}

#undef RUPS_LAG_SCATTER_256
#undef RUPS_QUANT_STEP_256

void lag_pass_avx2(const std::int16_t* fq, const std::int16_t* fv,
                   const std::int16_t* sq0, const std::int16_t* sv0,
                   std::size_t window, std::int32_t* sums) {
  lag_parity_avx2(fq, fv, sq0, sv0, window, sums, 0);
  lag_parity_avx2(fq, fv, sq0, sv0, window, sums, 1);
  if (window & 1) lag_tail_metre(fq, fv, sq0, sv0, window - 1, sums);
}

/// One 32-wide int16 step of the six-sum accumulation (AVX-512BW); same
/// dual-use formulas as the 256-bit step.
#define RUPS_QUANT_STEP_512(vfq, vfv, vsq, vsv)                         \
  do {                                                                  \
    const __m512i mf = _mm512_mullo_epi16(vfq, vsv);                    \
    const __m512i ms = _mm512_mullo_epi16(vsq, vfv);                    \
    an = _mm512_add_epi32(an, _mm512_madd_epi16(vfv, vsv));             \
    asx = _mm512_add_epi32(asx, _mm512_madd_epi16(vfq, vsv));           \
    asy = _mm512_add_epi32(asy, _mm512_madd_epi16(vsq, vfv));           \
    asxx = _mm512_add_epi32(asxx, _mm512_madd_epi16(mf, vfq));          \
    asyy = _mm512_add_epi32(asyy, _mm512_madd_epi16(ms, vsq));          \
    asxy = _mm512_add_epi32(asxy, _mm512_madd_epi16(vfq, vsq));         \
  } while (0)

__attribute__((target("avx512bw"), noinline)) void channel_pass_512(
    const std::int16_t* fq, const std::int16_t* fv, const std::int16_t* sq0,
    const std::int16_t* sv0, std::size_t count, std::size_t window,
    std::int32_t* sums) {
  for (std::size_t b = 0; b < count; ++b) {
    const std::int16_t* sq = sq0 + b;
    const std::int16_t* sv = sv0 + b;
    __m512i an = _mm512_setzero_si512(), asx = an, asy = an, asxx = an,
            asyy = an, asxy = an;
    std::size_t i = 0;
    for (; i + 32 <= window; i += 32) {
      const __m512i vfq = _mm512_loadu_si512(fq + i);
      const __m512i vfv = _mm512_loadu_si512(fv + i);
      const __m512i vsq = _mm512_loadu_si512(sq + i);
      const __m512i vsv = _mm512_loadu_si512(sv + i);
      RUPS_QUANT_STEP_512(vfq, vfv, vsq, vsv);
    }
    if (i < window) {
      // Masked-out lanes load 0 and contribute 0 to every sum, so one
      // masked step finishes the window exactly. window - i is in [1,31]
      // so the shift below never hits the UB width.
      const __mmask32 k =
          (static_cast<__mmask32>(1) << (window - i)) - 1;
      const __m512i vfq = _mm512_maskz_loadu_epi16(k, fq + i);
      const __m512i vfv = _mm512_maskz_loadu_epi16(k, fv + i);
      const __m512i vsq = _mm512_maskz_loadu_epi16(k, sq + i);
      const __m512i vsv = _mm512_maskz_loadu_epi16(k, sv + i);
      RUPS_QUANT_STEP_512(vfq, vfv, vsq, vsv);
    }
    sums[0 * kLagBlock + b] = _mm512_reduce_add_epi32(an);
    sums[1 * kLagBlock + b] = _mm512_reduce_add_epi32(asx);
    sums[2 * kLagBlock + b] = _mm512_reduce_add_epi32(asy);
    sums[3 * kLagBlock + b] = _mm512_reduce_add_epi32(asxx);
    sums[4 * kLagBlock + b] = _mm512_reduce_add_epi32(asyy);
    sums[5 * kLagBlock + b] = _mm512_reduce_add_epi32(asxy);
  }
}

/// Element-staggered even/odd load for the GEMM-shaped pass: even lags'
/// metre pairs in the low ymm half (loads at pair base i), odd lags' in the
/// high half (same loads shifted one element).
#define RUPS_LAG_EO(p)                                                      \
  _mm512_inserti64x4(                                                       \
      _mm512_castsi256_si512(                                               \
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))),         \
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>((p) + 1)), 1)

/// Deinterleaving store: dword lane g of an accumulator is lag 2g (g < 8)
/// or lag 2(g-8)+1, so one permute puts the block in lag order.
#define RUPS_LAG_STORE_512(acc, j)                                          \
  _mm512_storeu_si512(sums + (j) * kLagBlock,                               \
                      _mm512_permutexvar_epi32(deint, acc))

/// GEMM-shaped pass, AVX-512BW: all 16 consecutive lags of a block in one
/// zmm accumulator set — even lags in lanes 0-7, odd lags in lanes 8-15 —
/// so the whole block costs one fused pair loop and six stores, with no
/// horizontal reductions anywhere.
__attribute__((target("avx512bw"), noinline)) void lag_pass_512(
    const std::int16_t* fq, const std::int16_t* fv, const std::int16_t* sq0,
    const std::int16_t* sv0, std::size_t window, std::int32_t* sums) {
  __m512i an = _mm512_setzero_si512(), asx = an, asy = an, asxx = an,
          asyy = an, asxy = an;
  std::size_t i = 0;
  for (; i + 1 < window; i += 2) {
    const __m512i vfq = _mm512_set1_epi32(pack_pair(fq + i));
    const __m512i vfv = _mm512_set1_epi32(pack_pair(fv + i));
    const __m512i vsq = RUPS_LAG_EO(sq0 + i);
    const __m512i vsv = RUPS_LAG_EO(sv0 + i);
    RUPS_QUANT_STEP_512(vfq, vfv, vsq, vsv);
  }
  const __m512i deint = _mm512_set_epi32(15, 7, 14, 6, 13, 5, 12, 4, 11, 3,
                                         10, 2, 9, 1, 8, 0);
  RUPS_LAG_STORE_512(an, 0);
  RUPS_LAG_STORE_512(asx, 1);
  RUPS_LAG_STORE_512(asy, 2);
  RUPS_LAG_STORE_512(asxx, 3);
  RUPS_LAG_STORE_512(asyy, 4);
  RUPS_LAG_STORE_512(asxy, 5);
  if (i < window) lag_tail_metre(fq, fv, sq0, sv0, i, sums);
}

#undef RUPS_LAG_STORE_512
#undef RUPS_LAG_EO
#undef RUPS_QUANT_STEP_512

#pragma GCC diagnostic pop

#endif  // __x86_64__ && __GNUC__

/// Every ISA build of the window kernel, widest first. Dispatch cannot
/// affect results — all variants compute identical integer sums — so the
/// pick is a pure speed knob.
constexpr detail::QuantKernelVariant kQuantKernelVariants[] = {
#if defined(__x86_64__) && defined(__GNUC__)
    {"avx512bw", has_avx512bw, channel_pass_512, lag_pass_512},
    {"avx2", has_avx2, channel_pass_avx2, lag_pass_avx2},
#endif
    {"generic", always_supported, channel_pass_generic, lag_pass_generic},
};

/// The first supported variant, resolved once.
const detail::QuantKernelVariant& quant_kernel() {
  static const detail::QuantKernelVariant& k = *std::find_if(
      std::begin(kQuantKernelVariants), std::end(kQuantKernelVariants),
      [](const detail::QuantKernelVariant& v) { return v.supported(); });
  return k;
}

/// Per-lag double accumulators threaded through the channel loop; one
/// instance per chunk, folded by quant_lane_accum once per channel.
struct QuantLaneAcc {
  double channel_corr_sum[kLagBlock];
  std::size_t channels_used[kLagBlock];
  double pn[kLagBlock], psx[kLagBlock], psy[kLagBlock];
  double psxx[kLagBlock], psyy[kLagBlock], psxy[kLagBlock];
};

/// Branchless per-lane epilogue fold: one channel's integer moment sums
/// (sum-major, 6 x kLagBlock) into the chunk accumulators. Extracted from
/// quant_chunk so it can carry target_clones (AVX2 / AVX-512 width instead
/// of baseline SSE2), and so the `omp simd` pragma plus -fno-trapping-math
/// if-convert the selects into masked packed div/sqrt. Lanes are
/// independent and packed IEEE ops are bit-identical to their scalar
/// forms, so neither the clone picked nor the vector width can diverge
/// from a scalar evaluation of the same source.
RUPS_ISA_CLONES __attribute__((noinline)) void quant_lane_accum(
    const std::int32_t* sums, std::size_t count, std::int64_t min_overlap,
    double sf, double ss, QuantLaneAcc& acc) {
  // One reciprocal replaces the three per-lane divides; bitwise & and
  // select-clamp instead of && / std::clamp keep the body branch-free.
  // Both are legal because the quantized epilogue defines its own
  // deterministic rounding — it only has to match itself across paths,
  // the float comparison is bounded, not bitwise.
#pragma omp simd
  for (std::size_t b = 0; b < count; ++b) {
    const std::int32_t sn = sums[0 * kLagBlock + b];
    const bool use = sn >= min_overlap;
    const double inv = 1.0 / (use ? static_cast<double>(sn) : 1.0);
    const double dsx = static_cast<double>(sums[1 * kLagBlock + b]);
    const double dsy = static_cast<double>(sums[2 * kLagBlock + b]);
    const double vx =
        (static_cast<double>(sums[3 * kLagBlock + b]) - dsx * dsx * inv) *
        (sf * sf);
    const double vy =
        (static_cast<double>(sums[4 * kLagBlock + b]) - dsy * dsy * inv) *
        (ss * ss);
    const double cov =
        (static_cast<double>(sums[5 * kLagBlock + b]) - dsx * dsy * inv) *
        (sf * ss);
    const bool informative = use & (vx > 1e-2) & (vy > 1e-2);
    double r = cov / std::sqrt(vx * vy);
    r = r < -1.0 ? -1.0 : r;
    r = r > 1.0 ? 1.0 : r;
    acc.channel_corr_sum[b] += informative ? r : 0.0;
    acc.channels_used[b] += use ? 1u : 0u;
    // Profile means deliberately OMIT the affine offsets: Pearson across
    // channels is invariant under a per-series constant shift, so leaving
    // the offsets out changes nothing mathematically while making the
    // score a function of (q, step) alone — a fleet-wide dBm shift that
    // lands exactly on the float grid then reproduces bit-identical
    // scores, and the centered sums cancel less (means sit in [0, range]
    // instead of around the raw offset).
    const double ma = (dsx * inv) * sf;
    const double mb = (dsy * inv) * ss;
    acc.pn[b] += use ? 1.0 : 0.0;
    acc.psx[b] += use ? ma : 0.0;
    acc.psy[b] += use ? mb : 0.0;
    acc.psxx[b] += use ? ma * ma : 0.0;
    acc.psyy[b] += use ? mb * mb : 0.0;
    acc.psxy[b] += use ? ma * mb : 0.0;
  }
}

/// Scores one chunk of `count` <= kLagBlock lags. Structure mirrors the
/// float lag_block_body: integer moment sums per (channel, lag), then the
/// same branchless-select epilogue — overlap (`use`) and min_channels
/// decisions are exact integer counts identical to the float path's on the
/// same masks; the variance guard compares DEQUANTIZED variances against
/// the same 1e-2 dB² threshold. Chunk shape cannot change results (exact
/// sums), so overlapping or splitting blocks is always safe.
void quant_chunk(const QuantView& fixed, std::size_t fixed_start,
                 const QuantView& sliding, std::size_t pos0,
                 std::size_t count, std::size_t window,
                 const TrajectoryCorrelationConfig& config, double* out) {
  QuantLaneAcc acc{};
  const auto min_overlap =
      static_cast<std::int64_t>(config.min_channel_overlap);
  const double sf = fixed.span.params.step;
  const double ss = sliding.span.params.step;
  std::int32_t sums[6 * kLagBlock];
  // Full blocks take the GEMM-shaped lag pass; short remainders take the
  // along-window pass. Both produce identical integer sums, so the route
  // is timing-only.
  const bool full_block = count == kLagBlock;
  const detail::QuantKernelVariant& kernel = quant_kernel();

  const std::size_t k = std::min(fixed.rows.size(), sliding.rows.size());
  for (std::size_t kk = 0; kk < k; ++kk) {
    const std::size_t fc = fixed.rows[kk];
    const std::size_t sc = sliding.rows[kk];
    if (fc >= fixed.span.channels || sc >= sliding.span.channels) continue;
    const std::int16_t* fqp =
        fixed.span.q + fc * fixed.span.stride + fixed_start;
    const std::int16_t* fvp =
        fixed.span.v + fc * fixed.span.stride + fixed_start;
    const std::int16_t* sqp = sliding.span.q + sc * sliding.span.stride + pos0;
    const std::int16_t* svp = sliding.span.v + sc * sliding.span.stride + pos0;
    if (full_block) {
      kernel.lag_pass(fqp, fvp, sqp, svp, window, sums);
    } else {
      kernel.channel_pass(fqp, fvp, sqp, svp, count, window, sums);
    }
    quant_lane_accum(sums, count, min_overlap, sf, ss, acc);
  }

  for (std::size_t b = 0; b < count; ++b) {
    if (acc.channels_used[b] < config.min_channels) {
      out[b] = -2.0;
      continue;
    }
    double profile_corr = 0.0;
    if (acc.pn[b] >= 2.0) {
      const double vx = acc.psxx[b] - acc.psx[b] * acc.psx[b] / acc.pn[b];
      const double vy = acc.psyy[b] - acc.psy[b] * acc.psy[b] / acc.pn[b];
      const double cov = acc.psxy[b] - acc.psx[b] * acc.psy[b] / acc.pn[b];
      if (vx > 0.0 && vy > 0.0) {
        profile_corr = std::clamp(cov / std::sqrt(vx * vy), -1.0, 1.0);
      }
    }
    out[b] =
        acc.channel_corr_sum[b] / static_cast<double>(acc.channels_used[b]) +
        profile_corr;
  }
}

}  // namespace

namespace detail {

std::span<const QuantKernelVariant> quant_kernel_variants() {
  return kQuantKernelVariants;
}

}  // namespace detail

void quantized_correlation_batch(const QuantView& fixed,
                                 std::size_t fixed_start,
                                 const QuantView& sliding, std::size_t pos_lo,
                                 std::size_t pos_count, std::size_t window,
                                 const TrajectoryCorrelationConfig& config,
                                 double* out_scores) {
  if (window > kQuantMaxWindowM) {
    throw std::invalid_argument(
        "quantized_correlation: window exceeds kQuantMaxWindowM");
  }
  if (pos_count < kLagBlock) {
    quant_chunk(fixed, fixed_start, sliding, pos_lo, pos_count, window,
                config, out_scores);
    return;
  }
  // Keep every chunk a full block so the GEMM-shaped lag pass runs
  // throughout: the last chunk overlaps backwards instead of shrinking.
  // Recomputed lags are bit-identical (exact integer sums), so overlap is
  // free of the float kernel's lane-shape concerns.
  std::size_t q = 0;
  for (; q + kLagBlock <= pos_count; q += kLagBlock) {
    quant_chunk(fixed, fixed_start, sliding, pos_lo + q, kLagBlock, window,
                config, out_scores + q);
  }
  if (q < pos_count) {
    const std::size_t q0 = pos_count - kLagBlock;
    quant_chunk(fixed, fixed_start, sliding, pos_lo + q0, kLagBlock, window,
                config, out_scores + q0);
  }
}

double quantized_correlation(const QuantView& fixed, std::size_t fixed_start,
                             const QuantView& sliding, std::size_t pos,
                             std::size_t window,
                             const TrajectoryCorrelationConfig& config) {
  double out;
  quantized_correlation_batch(fixed, fixed_start, sliding, pos, 1, window,
                              config, &out);
  return out;
}

void scan_correlation_batch(const ScanPair& pair, std::size_t pos_lo,
                            std::size_t pos_count, std::size_t window,
                            const TrajectoryCorrelationConfig& config,
                            double* out_scores) {
  if (pair.precision != KernelPrecision::kFloat32) {
    quantized_correlation_batch(pair.qfixed, pair.fixed_start, pair.qsliding,
                                pos_lo, pos_count, window, config, out_scores);
    return;
  }
  packed_correlation_batch(pair.fixed, pair.fixed_start, pair.sliding, pos_lo,
                           pos_count, window, config, out_scores);
}

}  // namespace rups::core
