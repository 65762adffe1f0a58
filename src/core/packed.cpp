#include "core/packed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

// NOTE: this translation unit is compiled WITHOUT value-changing FP options
// (no -ffast-math; -ffp-contract=off — see src/core/CMakeLists.txt), so the
// lane kernel below evaluates IEEE source-order semantics exactly. That is
// what upgrades the repo's determinism invariant from "single TU, same
// flags" (bit-identity by compiler accident) to a language-level guarantee:
// every lane accumulates its moment sums over the window metres in source
// order, independent of the block width or how the compiler vectorizes
// ACROSS lanes. Speed comes from batching lags, not from reassociation.

namespace rups::core {

std::size_t PackedContext::sync(const ContextTrajectory& t,
                                std::size_t volatile_suffix_m) {
  if (t.empty()) {
    channels_ = t.channels();
    clear();
    return 0;
  }
  const std::uint64_t t_first = t.first_metre();
  const std::uint64_t t_end = t_first + t.size();
  const std::uint64_t packed_end = first_metre_ + metres_;

  // Incremental only when the trajectory is the packed range plus front
  // evictions and/or appended metres; anything else (width change, rebase,
  // shrink, gap) falls back to a full repack.
  const bool incremental = metres_ != 0 && channels_ == t.channels() &&
                           t_first >= first_metre_ && t_first <= packed_end &&
                           t_end >= packed_end && t.size() <= stride_;
  if (!incremental) {
    channels_ = t.channels();
    // Slack so eviction-driven compaction is amortized across appends.
    const std::size_t want = std::max(t.capacity_m(), t.size());
    stride_ = want + std::max<std::size_t>(64, want / 4);
    x_.assign(channels_ * stride_, 0.0f);
    x2_.assign(channels_ * stride_, 0.0f);
    v_.assign(channels_ * stride_, 0.0f);
    base_ = 0;
    first_metre_ = t_first;
    metres_ = t.size();
    for (std::size_t i = 0; i < metres_; ++i) pack_column(t, i);
    return metres_;
  }

  // Front eviction: advance the view base, no data movement.
  const auto evicted = static_cast<std::size_t>(t_first - first_metre_);
  base_ += evicted;
  metres_ -= evicted;
  first_metre_ = t_first;

  if (base_ + t.size() > stride_) compact();

  // Append the new columns plus the trailing volatile region — the binder
  // retro-fills interpolated channels behind the newest metre, so recently
  // packed columns may be stale.
  const std::size_t keep =
      metres_ > volatile_suffix_m ? metres_ - volatile_suffix_m : 0;
  metres_ = t.size();
  for (std::size_t i = keep; i < metres_; ++i) pack_column(t, i);
  return metres_ - keep;
}

void PackedContext::compact() noexcept {
  if (base_ == 0) return;
  const std::size_t bytes = metres_ * sizeof(float);
  for (std::size_t c = 0; c < channels_; ++c) {
    std::memmove(x_.data() + c * stride_, x_.data() + c * stride_ + base_,
                 bytes);
    std::memmove(x2_.data() + c * stride_, x2_.data() + c * stride_ + base_,
                 bytes);
    std::memmove(v_.data() + c * stride_, v_.data() + c * stride_ + base_,
                 bytes);
  }
  base_ = 0;
}

void PackedContext::pack_column(const ContextTrajectory& t, std::size_t index) {
  const std::size_t col = base_ + index;
  const PowerVector& pv = t.power(index);
  const std::size_t width = pv.channels();
  for (std::size_t c = 0; c < channels_; ++c) {
    float val = 0.0f;
    float sq = 0.0f;
    float mask = 0.0f;
    if (c < width && pv.usable(c)) {
      val = pv.at(c) + kPackShiftDbm;
      sq = val * val;
      mask = 1.0f;
    }
    x_[c * stride_ + col] = val;
    x2_[c * stride_ + col] = sq;
    v_[c * stride_ + col] = mask;
  }
}

SubsetPack::SubsetPack(const ContextTrajectory& t,
                       std::span<const std::size_t> channels, std::size_t from,
                       std::size_t len)
    : metres_(len), k_(channels.size()) {
  x_.assign(k_ * len, 0.0f);
  x2_.assign(k_ * len, 0.0f);
  v_.assign(k_ * len, 0.0f);
  const std::size_t width = t.channels();
  for (std::size_t i = 0; i < len; ++i) {
    const PowerVector& pv = t.power(from + i);
    for (std::size_t kk = 0; kk < k_; ++kk) {
      const std::size_t c = channels[kk];
      if (c < width && pv.usable(c)) {
        const float val = pv.at(c) + kPackShiftDbm;
        x_[kk * len + i] = val;
        x2_[kk * len + i] = val * val;
        v_[kk * len + i] = 1.0f;
      }
    }
  }
}

namespace {

/// One checking channel's fixed-row moments over the fixed window, and the
/// per-channel epilogue terms the masked loop derives from them. In a block
/// whose sliding row is usable at every metre each mask product
/// `m = fvi * sv[j]` equals `fvi` exactly, so every lane's n, Σx and Σx²
/// (and from them dn, vx and the fixed mean ma) are these values: computed
/// at most once per batch call, with the same operations in the same order.
struct FixedRow {
  bool ready;  ///< computed in this batch call
  bool use;    ///< n >= min_channel_overlap
  double dn;
  double vx;
  double sx;
  double ma;
};

/// Rows past this many checking channels keep the masked loop (a stack
/// bound; production plans carry top_channels = 45).
constexpr std::size_t kMaxFixedRows = 64;

/// Out of line and not cloned, so the block kernels' masked epilogue keeps
/// its own scalar division count.
[[gnu::noinline]] void hoist_fixed_row(const float* fx, const float* fx2,
                                       const float* fv, std::size_t window,
                                       float min_overlap, FixedRow& f) {
  float n = 0.0f, sx = 0.0f, sxx = 0.0f;
  for (std::size_t i = 0; i < window; ++i) {
    n += fv[i];
    sx += fv[i] * fx[i];
    sxx += fv[i] * fx2[i];
  }
  f.ready = true;
  f.use = n >= min_overlap;
  f.dn = f.use ? static_cast<double>(n) : 1.0;
  f.vx = static_cast<double>(sxx) - static_cast<double>(sx) * sx / f.dn;
  f.sx = sx;
  f.ma = sx / f.dn;
}

/// True when all `n` sliding slots are 1.0. A count with no early exit,
/// so it compiles to a few vector compares.
[[gnu::always_inline]] inline bool row_usable(const float* sv, std::size_t n) {
  unsigned masked = 0;
  for (std::size_t j = 0; j < n; ++j) masked += sv[j] != 1.0f;
  return masked == 0;
}

// ---------------------------------------------------------------------------
// Lane kernel. lag_block_body<B> scores the B sliding positions
//   pos0, pos0 + 1, ..., pos0 + B - 1     (in metres)
// in one traversal of the checking window. The outer loop runs over window
// metres i; fixed-row values fv[i]/fx[i]/fx2[i] are loaded once per metre
// and broadcast; the B sliding-side loads sx_[i + b] are contiguous across
// the block (SIMD lanes across lags). Each lane's six float moment sums
// accumulate over i in source order, which is the SAME order the
// historical per-position kernel used — so every lane is bit-identical to a
// single-position call regardless of B or target ISA (the TU is compiled
// without value-changing FP options).
//
// B == 1 is the single-position block — packed_correlation() routes
// through it so there is exactly ONE masked accumulation loop in the whole
// system.
//
// The per-channel epilogue is branchless on purpose: every lane computes
// the variance/covariance reduction with a safe denominator (dn = 1 when
// the lane's overlap is below min_channel_overlap) and then SELECTS either
// the real contribution or 0.0 / +0. Adding a selected +0.0 to a lane's
// running double sums cannot change their bits (the sums are never -0.0:
// they start at +0.0 and x + (-0.0) == x for any x != -0.0), so an
// excluded lane's sums stay bit-equal to the scalar path that skipped the
// channel with `continue`. A lane whose guard fails may compute NaN/Inf in
// `r`; the select discards it before it can touch an accumulator.
//
// Usable-row lane loop: in the blocks of a batch call (`rows` non-empty),
// a channel whose sliding row is 1.0 across the block's whole read range
// [pos0, pos0 + window + B - 1) takes a lean loop of three sums (sy +=
// fvi*y, syy += fvi*y2, sxy += (fvi*fxi)*y — the masked loop's own
// products with m == fvi) and a vectorized epilogue over the channel's
// FixedRow, hoisted on first use. A channel whose fixed row is below
// min_channel_overlap is skipped there: its lanes would only add +0.
// ---------------------------------------------------------------------------
template <int B>
[[gnu::always_inline]] inline void lag_block_body(
    const PackedView& fixed, std::size_t fixed_start, const PackedView& sliding,
    std::size_t pos0, std::size_t window,
    const TrajectoryCorrelationConfig& config, FixedRow* rows,
    std::size_t row_count, double* out) {
  double channel_corr_sum[B] = {};
  std::size_t channels_used[B] = {};
  double pn[B] = {}, psx[B] = {}, psy[B] = {}, psxx[B] = {}, psyy[B] = {},
         psxy[B] = {};
  const float min_overlap = static_cast<float>(config.min_channel_overlap);

  const std::size_t k = std::min(fixed.rows.size(), sliding.rows.size());
  for (std::size_t kk = 0; kk < k; ++kk) {
    const std::size_t fc = fixed.rows[kk];
    const std::size_t sc = sliding.rows[kk];
    // A channel outside either pack contributes nothing (an all-masked row
    // would be skipped by min_channel_overlap below anyway).
    if (fc >= fixed.span.channels || sc >= sliding.span.channels) continue;
    const float* fx = fixed.span.x + fc * fixed.span.stride + fixed_start;
    const float* fx2 = fixed.span.x2 + fc * fixed.span.stride + fixed_start;
    const float* fv = fixed.span.v + fc * fixed.span.stride + fixed_start;
    const float* sx_ = sliding.span.x + sc * sliding.span.stride + pos0;
    const float* sx2_ = sliding.span.x2 + sc * sliding.span.stride + pos0;
    const float* sv_ = sliding.span.v + sc * sliding.span.stride + pos0;

    if constexpr (B > 1) {
      if (kk < row_count && row_usable(sv_, window + B - 1)) {
        FixedRow& f = rows[kk];
        if (!f.ready) hoist_fixed_row(fx, fx2, fv, window, min_overlap, f);
        if (!f.use) continue;
        float sy[B] = {}, syy[B] = {}, sxy[B] = {};
        for (std::size_t i = 0; i < window; ++i) {
          const float fvi = fv[i];
          const float fxi = fvi * fx[i];
#pragma omp simd
          for (int b = 0; b < B; ++b) {
            const std::size_t j = i + static_cast<std::size_t>(b);
            sy[b] += fvi * sx_[j];
            syy[b] += fvi * sx2_[j];
            sxy[b] += fxi * sx_[j];
          }
        }
        const bool vx_ok = f.vx > 1e-2;
        const double ma2 = f.ma * f.ma;
#pragma omp simd
        for (int b = 0; b < B; ++b) {
          const double vy = static_cast<double>(syy[b]) -
                            static_cast<double>(sy[b]) * sy[b] / f.dn;
          const double cov =
              static_cast<double>(sxy[b]) - f.sx * sy[b] / f.dn;
          const bool informative = vx_ok & (vy > 1e-2);
          double r = cov / std::sqrt(f.vx * vy);
          r = r < -1.0 ? -1.0 : r;
          r = 1.0 < r ? 1.0 : r;
          channel_corr_sum[b] += informative ? r : 0.0;
          channels_used[b] += 1;
          const double mb = sy[b] / f.dn;
          pn[b] += 1.0;
          psx[b] += f.ma;
          psy[b] += mb;
          psxx[b] += ma2;
          psyy[b] += mb * mb;
          psxy[b] += f.ma * mb;
        }
        continue;
      }
    }

    float n[B] = {}, sx[B] = {}, sy[B] = {}, sxx[B] = {}, syy[B] = {},
          sxy[B] = {};
    // Per metre i the block reads sliding columns [i, i+B) — one unaligned
    // vector load per stream.
    for (std::size_t i = 0; i < window; ++i) {
      const float fvi = fv[i];
      const float fxi = fx[i];
      const float fx2i = fx2[i];
      for (int b = 0; b < B; ++b) {
        const std::size_t j = i + static_cast<std::size_t>(b);
        const float m = fvi * sv_[j];
        n[b] += m;
        sx[b] += m * fxi;
        sy[b] += m * sx_[j];
        sxx[b] += m * fx2i;
        syy[b] += m * sx2_[j];
        sxy[b] += m * fxi * sx_[j];
      }
    }
    for (int b = 0; b < B; ++b) {
      const bool use = n[b] >= min_overlap;
      const double dn = use ? static_cast<double>(n[b]) : 1.0;
      const double vx =
          static_cast<double>(sxx[b]) - static_cast<double>(sx[b]) * sx[b] / dn;
      const double vy =
          static_cast<double>(syy[b]) - static_cast<double>(sy[b]) * sy[b] / dn;
      const double cov =
          static_cast<double>(sxy[b]) - static_cast<double>(sx[b]) * sy[b] / dn;
      // Variance guard: a (near-)constant channel carries no alignment
      // information, and float residues below ~1e-2 dB^2 are pure rounding
      // noise — count the channel with zero correlation.
      const bool informative = use && vx > 1e-2 && vy > 1e-2;
      const double r = std::clamp(cov / std::sqrt(vx * vy), -1.0, 1.0);
      channel_corr_sum[b] += informative ? r : 0.0;
      channels_used[b] += use ? 1u : 0u;
      const double ma = sx[b] / dn;
      const double mb = sy[b] / dn;
      pn[b] += use ? 1.0 : 0.0;
      psx[b] += use ? ma : 0.0;
      psy[b] += use ? mb : 0.0;
      psxx[b] += use ? ma * ma : 0.0;
      psyy[b] += use ? mb * mb : 0.0;
      psxy[b] += use ? ma * mb : 0.0;
    }
  }

  for (int b = 0; b < B; ++b) {
    if (channels_used[b] < config.min_channels) {
      out[b] = -2.0;
      continue;
    }
    double profile_corr = 0.0;
    if (pn[b] >= 2.0) {
      const double vx = psxx[b] - psx[b] * psx[b] / pn[b];
      const double vy = psyy[b] - psy[b] * psy[b] / pn[b];
      const double cov = psxy[b] - psx[b] * psy[b] / pn[b];
      if (vx > 0.0 && vy > 0.0) profile_corr = cov / std::sqrt(vx * vy);
    }
    out[b] =
        channel_corr_sum[b] / static_cast<double>(channels_used[b]) +
        profile_corr;
  }
}

// Runtime ISA dispatch: GCC emits default/AVX2/AVX-512 clones of each block
// width and an ifunc resolver picks once at load time. The clone attribute
// must sit on a concrete (non-template) function, hence the macro. Every
// caller of a given width runs the same resolved clone, and all clones
// evaluate the same strict-FP source semantics, so dispatch cannot break
// bit-identity. TSan builds drop the clones: ifunc resolvers run during
// relocation, before the sanitizer runtime is initialised, and the
// instrumented resolver path segfaults there.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define RUPS_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define RUPS_KERNEL_CLONES
#endif

#define RUPS_DEFINE_LAG_BLOCK(B)                                          \
  RUPS_KERNEL_CLONES __attribute__((noinline)) void lag_block_##B(        \
      const PackedView& fixed, std::size_t fixed_start,                   \
      const PackedView& sliding, std::size_t pos0, std::size_t window,    \
      const TrajectoryCorrelationConfig& config, FixedRow* rows,          \
      std::size_t row_count, double* out) {                               \
    lag_block_body<B>(fixed, fixed_start, sliding, pos0, window, config,  \
                      rows, row_count, out);                              \
  }

RUPS_DEFINE_LAG_BLOCK(1)
RUPS_DEFINE_LAG_BLOCK(4)
RUPS_DEFINE_LAG_BLOCK(8)
RUPS_DEFINE_LAG_BLOCK(16)
#undef RUPS_DEFINE_LAG_BLOCK
#undef RUPS_KERNEL_CLONES

/// Full blocks of B ascending positions, then either an overlapped tail
/// block (recomputes up to B-1 already-scored positions — bit-identical, so
/// harmless) or, when the whole batch is smaller than B, single-position
/// blocks. Batches of at least one block hoist the fixed-row terms once for
/// all their blocks.
template <int B>
void batch_blocks(const PackedView& fixed, std::size_t fixed_start,
                  const PackedView& sliding, std::size_t pos_lo,
                  std::size_t pos_count, std::size_t window,
                  const TrajectoryCorrelationConfig& config,
                  double* out_scores) {
  constexpr auto kB = static_cast<std::size_t>(B);
  FixedRow rows[kMaxFixedRows]{};
  const std::size_t row_count =
      pos_count >= kB ? std::min(fixed.rows.size(), kMaxFixedRows) : 0;
  const auto block = [&](std::size_t pos0, double* out) {
    if constexpr (B == 4) {
      lag_block_4(fixed, fixed_start, sliding, pos0, window, config, rows,
                  row_count, out);
    } else if constexpr (B == 8) {
      lag_block_8(fixed, fixed_start, sliding, pos0, window, config, rows,
                  row_count, out);
    } else {
      lag_block_16(fixed, fixed_start, sliding, pos0, window, config, rows,
                   row_count, out);
    }
  };
  std::size_t q = 0;
  for (; q + kB <= pos_count; q += kB) block(pos_lo + q, out_scores + q);
  if (q == pos_count) return;
  double tmp[kB];
  if (pos_count >= kB) {
    const std::size_t start = pos_count - kB;
    block(pos_lo + start, tmp);
    for (std::size_t b = q - start; b < kB; ++b) {
      out_scores[start + b] = tmp[b];
    }
  } else {
    // Fewer positions than lanes: score one at a time through the B=1
    // block (identical per-lane arithmetic, so still bit-exact).
    for (; q < pos_count; ++q) {
      lag_block_1(fixed, fixed_start, sliding, pos_lo + q, window, config,
                  nullptr, 0, tmp);
      out_scores[q] = tmp[0];
    }
  }
}

}  // namespace

double packed_correlation(const PackedView& fixed, std::size_t fixed_start,
                          const PackedView& sliding, std::size_t pos,
                          std::size_t window,
                          const TrajectoryCorrelationConfig& config) {
  double out[1];
  lag_block_1(fixed, fixed_start, sliding, pos, window, config, nullptr, 0,
              out);
  return out[0];
}

void packed_correlation_batch(const PackedView& fixed, std::size_t fixed_start,
                              const PackedView& sliding, std::size_t pos_lo,
                              std::size_t pos_count, std::size_t window,
                              const TrajectoryCorrelationConfig& config,
                              double* out_scores) {
  batch_blocks<16>(fixed, fixed_start, sliding, pos_lo, pos_count, window,
                   config, out_scores);
}

void packed_correlation_batch_lanes(
    std::size_t lanes, const PackedView& fixed, std::size_t fixed_start,
    const PackedView& sliding, std::size_t pos_lo, std::size_t pos_count,
    std::size_t window, const TrajectoryCorrelationConfig& config,
    double* out_scores) {
  switch (lanes) {
    case 1:
      for (std::size_t q = 0; q < pos_count; ++q) {
        out_scores[q] = packed_correlation(fixed, fixed_start, sliding,
                                           pos_lo + q, window, config);
      }
      break;
    case 4:
      batch_blocks<4>(fixed, fixed_start, sliding, pos_lo, pos_count, window,
                      config, out_scores);
      break;
    case 8:
      batch_blocks<8>(fixed, fixed_start, sliding, pos_lo, pos_count, window,
                      config, out_scores);
      break;
    default:
      batch_blocks<16>(fixed, fixed_start, sliding, pos_lo, pos_count, window,
                       config, out_scores);
      break;
  }
}

}  // namespace rups::core
