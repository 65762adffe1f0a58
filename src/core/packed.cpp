#include "core/packed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/isa_clones.hpp"

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
  const bool same = identity_ == t.identity();
  const bool edited = revision_ != t.revision();
  identity_ = t.identity();
  revision_ = t.revision();
  if (t.empty()) {
    channels_ = t.channels();
    base_ = metres_ = 0;
    first_metre_ = 0;
    return 0;
  }
  const std::uint64_t t_first = t.first_metre();
  const std::uint64_t t_end = t_first + t.size();
  const std::uint64_t packed_end = first_metre_ + metres_;

  // Incremental only for the same trajectory grown by front evictions
  // and/or appended metres; anything else falls back to a full repack.
  const bool incremental = same && metres_ != 0 && channels_ == t.channels() &&
                           t_first >= first_metre_ && t_first <= packed_end &&
                           t_end >= packed_end && t.size() <= stride_;
  if (!incremental) {
    channels_ = t.channels();
    // Slack so eviction-driven compaction is amortized across appends.
    const std::size_t want = std::max(t.capacity_m(), t.size());
    stride_ = want + std::max<std::size_t>(64, want / 4);
    x_.assign(channels_ * stride_, 0.0f);
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

  // Append the new columns; after an edit, also re-pack the trailing
  // volatile region the binder's retro-fill may have rewritten.
  const std::size_t suffix = edited ? volatile_suffix_m : 0;
  const std::size_t keep = metres_ > suffix ? metres_ - suffix : 0;
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
    float mask = 0.0f;
    if (c < width && pv.usable(c)) {
      val = pv.at(c) + kPackShiftDbm;
      mask = 1.0f;
    }
    x_[c * stride_ + col] = val;
    v_[c * stride_ + col] = mask;
  }
}

SubsetPack::SubsetPack(const ContextTrajectory& t,
                       std::span<const std::size_t> channels, std::size_t from,
                       std::size_t len)
    : metres_(len), k_(channels.size()) {
  x_.assign(k_ * len, 0.0f);
  v_.assign(k_ * len, 0.0f);
  const std::size_t width = t.channels();
  for (std::size_t i = 0; i < len; ++i) {
    const PowerVector& pv = t.power(from + i);
    for (std::size_t kk = 0; kk < k_; ++kk) {
      const std::size_t c = channels[kk];
      if (c < width && pv.usable(c)) {
        x_[kk * len + i] = pv.at(c) + kPackShiftDbm;
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
[[gnu::noinline]] void hoist_fixed_row(const float* fx, const float* fv,
                                       std::size_t window, float min_overlap,
                                       FixedRow& f) {
  float n = 0.0f, sx = 0.0f, sxx = 0.0f;
  for (std::size_t i = 0; i < window; ++i) {
    n += fv[i];
    sx += fv[i] * fx[i];
    sxx += (fv[i] * fx[i]) * fx[i];
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
// metres i; fixed-row values fv[i]/fx[i] are loaded once per metre and
// broadcast; the B sliding-side loads sx_[i + b] are contiguous across the
// block (SIMD lanes across lags). Each lane's six float moment sums
// accumulate over i in source order, which is the SAME order the
// historical per-position kernel used — so every lane is bit-identical to a
// single-position call regardless of B or target ISA (the TU is compiled
// without value-changing FP options).
//
// Squares come from the mask-weighted products (mf = m*x, my = m*y; Σx² +=
// mf*x, Σy² += my*y, Σxy += mf*y). Every pack v slot is exactly 0.0f or
// 1.0f, so m is 0 or 1 and (m*x)*x rounds like m*(x*x); a masked -0.0 term
// leaves a sum that started at +0.0 unchanged.
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
// [pos0, pos0 + window + B - 1) takes a lean loop of three sums (my =
// fvi*y; sy += my, syy += my*y, sxy += (fvi*fxi)*y — the masked loop's own
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
    const float* fv = fixed.span.v + fc * fixed.span.stride + fixed_start;
    const float* sx_ = sliding.span.x + sc * sliding.span.stride + pos0;
    const float* sv_ = sliding.span.v + sc * sliding.span.stride + pos0;

    if constexpr (B > 1) {
      if (kk < row_count && row_usable(sv_, window + B - 1)) {
        FixedRow& f = rows[kk];
        if (!f.ready) hoist_fixed_row(fx, fv, window, min_overlap, f);
        if (!f.use) continue;
        float sy[B] = {}, syy[B] = {}, sxy[B] = {};
        for (std::size_t i = 0; i < window; ++i) {
          const float fvi = fv[i];
          const float fxi = fvi * fx[i];
#pragma omp simd
          for (int b = 0; b < B; ++b) {
            const float y = sx_[i + static_cast<std::size_t>(b)], my = fvi * y;
            sy[b] += my;
            syy[b] += my * y;
            sxy[b] += fxi * y;
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
      for (int b = 0; b < B; ++b) {
        const std::size_t j = i + static_cast<std::size_t>(b);
        const float m = fvi * sv_[j], y = sx_[j];
        const float mf = m * fxi, my = m * y;
        n[b] += m;
        sx[b] += mf;
        sy[b] += my;
        sxx[b] += mf * fxi;
        syy[b] += my * y;
        sxy[b] += mf * y;
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

// One clone set per block width (core/isa_clones.hpp); every caller of a
// given width runs the same resolved clone, so dispatch cannot break
// bit-identity.
#define RUPS_DEFINE_LAG_BLOCK(B)                                          \
  RUPS_ISA_CLONES __attribute__((noinline)) void lag_block_##B(           \
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

/// Full blocks of B ascending positions, then one partial block (DESIGN
/// §11): it ends at the range's last position, or starts at metre 0 when
/// the range ends sooner, and only the requested lanes are copied out.
/// Every lane equals its single-position score wherever its block starts,
/// so re-scored and unrequested lanes are harmless. A lone position, or a
/// short range on a span too short for a full block, runs single-position
/// blocks instead.
template <int B>
void batch_blocks(const PackedView& fixed, std::size_t fixed_start,
                  const PackedView& sliding, std::size_t pos_lo,
                  std::size_t pos_count, std::size_t window,
                  const TrajectoryCorrelationConfig& config,
                  double* out_scores) {
  constexpr auto kB = static_cast<std::size_t>(B);
  if (packed_batch_blocks(pos_count, window, sliding.span.metres, kB) ==
      pos_count) {
    double one[1];
    for (std::size_t q = 0; q < pos_count; ++q) {
      lag_block_1(fixed, fixed_start, sliding, pos_lo + q, window, config,
                  nullptr, 0, one);
      out_scores[q] = one[0];
    }
    return;
  }
  FixedRow rows[kMaxFixedRows]{};
  const std::size_t row_count = std::min(fixed.rows.size(), kMaxFixedRows);
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
  const std::size_t end = pos_lo + pos_count;
  const std::size_t start = end >= kB ? end - kB : 0;
  double tmp[kB];
  block(start, tmp);
  for (; q < pos_count; ++q) out_scores[q] = tmp[pos_lo + q - start];
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
