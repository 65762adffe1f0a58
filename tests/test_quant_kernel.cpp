#include "core/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/packed.hpp"
#include "core/syn_seeker.hpp"
#include "core/types.hpp"
#include "support/road_field.hpp"
#include "util/rng.hpp"

// The quantized kernel's correctness harness (DESIGN §15):
//   * differential sweep — randomized windows/strides/masks/k at both
//     integer widths against the float kernel, with the score-error bound
//     asserted and the integer accept/reject decisions (overlap,
//     min_channels) required to match EXACTLY;
//   * determinism — quantized batch/multi calls are memcmp-bit-identical
//     to per-position quantized_correlation at any batch shape or stride
//     (the quant analogue of test_packed_batch's float contract);
//   * property suite — quantization round-trip within step/2, exact score
//     invariance under a dBm offset of the whole fleet, and argmax
//     stability under sub-LSB input perturbation;
//   * paper-point gate — at m=1000/w=100/k=45/10% mask the SYN estimate
//     (matched indices and window) is identical at kFloat32, kInt16 and
//     kInt8, end to end through SynSeeker.

namespace rups::core {
namespace {

// Asserted differential bounds on the eq.(2) score scale [-2, 2]. DESIGN
// §15 derives the first-order bound ~4(1+|r|)·(step/2)/sigma_min per
// Pearson term; the measured sweep maxima are ~4e-4 (int16) and ~3.5e-3
// (int8) at the paper point, and these constants keep an order-of-magnitude
// margin for the adversarial shapes below (short windows, heavy masks).
constexpr double kScoreBound16 = 2e-2;
constexpr double kScoreBound8 = 1.5e-1;

ContextTrajectory random_context(util::Rng& rng, std::size_t metres,
                                 std::size_t channels, double usable_fraction,
                                 double grid = 0.0) {
  ContextTrajectory t(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() > usable_fraction) continue;
      double dbm = -110.0 + 60.0 * rng.uniform();
      if (grid > 0.0) dbm = std::round(dbm / grid) * grid;
      pv.set(c, static_cast<float>(dbm));
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

std::vector<std::size_t> identity_rows(std::size_t k) {
  std::vector<std::size_t> rows(k);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

/// Float + both quantized widths of one trajectory stretch.
struct Operand {
  SubsetPack pack;
  QuantizedPack q16;
  QuantizedPack q8;
  std::vector<std::size_t> rows;

  Operand(const ContextTrajectory& t, std::size_t channels, std::size_t from,
          std::size_t len)
      : rows(identity_rows(channels)) {
    std::vector<std::size_t> ids(channels);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    pack = SubsetPack(t, ids, from, len);
    q16.build(pack.span(), QuantBits::kInt16);
    q8.build(pack.span(), QuantBits::kInt8);
  }

  [[nodiscard]] PackedView fview() const { return {pack.span(), rows}; }
  [[nodiscard]] QuantView16 v16() const { return {q16.span16(), rows}; }
  [[nodiscard]] QuantView8 v8() const { return {q8.span8(), rows}; }
};

void expect_bit_equal(double want, double got, const char* what,
                      std::size_t q) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << what << " lane " << q << ": want " << want << " got " << got;
}

TEST(QuantKernel, DifferentialSweepVsFloat) {
  util::Rng rng(515);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t channels =
        8 + static_cast<std::size_t>(rng.uniform() * 32.0);
    const std::size_t window =
        17 + static_cast<std::size_t>(rng.uniform() * 100.0);
    const std::size_t stride =
        1 + static_cast<std::size_t>(rng.uniform() * 4.0);
    const double usable = 0.55 + 0.4 * rng.uniform();
    const std::size_t metres = window + 70;
    const auto fixed_t = random_context(rng, window, channels, usable);
    const auto slide_t = random_context(rng, metres, channels, usable);
    const Operand fixed(fixed_t, channels, 0, window);
    const Operand slide(slide_t, channels, 0, metres);

    const std::size_t pos_count = (metres - window) / stride + 1;
    std::vector<double> f(pos_count), s16(pos_count), s8(pos_count);
    packed_correlation_batch(fixed.fview(), 0, slide.fview(), 0, pos_count,
                             window, config, f.data(), stride);
    quantized_correlation_batch<std::int16_t>(fixed.v16(), 0, slide.v16(), 0,
                                              pos_count, window, config,
                                              s16.data(), stride);
    quantized_correlation_batch<std::int8_t>(fixed.v8(), 0, slide.v8(), 0,
                                             pos_count, window, config,
                                             s8.data(), stride);
    for (std::size_t q = 0; q < pos_count; ++q) {
      // Overlap and min_channels decisions are exact integer counts on the
      // shared masks — the "no score" sentinel must agree exactly.
      EXPECT_EQ(f[q] == -2.0, s16[q] == -2.0) << "trial " << trial;
      EXPECT_EQ(f[q] == -2.0, s8[q] == -2.0) << "trial " << trial;
      if (f[q] == -2.0) continue;
      EXPECT_NEAR(f[q], s16[q], kScoreBound16)
          << "int16 trial " << trial << " pos " << q;
      EXPECT_NEAR(f[q], s8[q], kScoreBound8)
          << "int8 trial " << trial << " pos " << q;
    }
  }
}

template <typename T>
void expect_batch_matches_scalar(const QuantViewT<T>& fixed,
                                 const QuantViewT<T>& sliding,
                                 std::size_t pos_lo, std::size_t pos_count,
                                 std::size_t window, std::size_t stride,
                                 const TrajectoryCorrelationConfig& config,
                                 const char* what) {
  std::vector<double> got(pos_count, 0.0);
  quantized_correlation_batch<T>(fixed, 0, sliding, pos_lo, pos_count, window,
                                 config, got.data(), stride);
  for (std::size_t q = 0; q < pos_count; ++q) {
    const double want = quantized_correlation<T>(
        fixed, 0, sliding, pos_lo + q * stride, window, config);
    expect_bit_equal(want, got[q], what, q);
  }
}

TEST(QuantKernel, BatchMatchesPerPositionBitExact) {
  util::Rng rng(9090);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t channels =
        6 + static_cast<std::size_t>(rng.uniform() * 30.0);
    const std::size_t window =
        16 + static_cast<std::size_t>(rng.uniform() * 90.0);
    const std::size_t stride =
        1 + static_cast<std::size_t>(rng.uniform() * 4.0);
    const double usable = 0.4 + 0.55 * rng.uniform();
    // Batch shapes around the block boundary: below, at, above, multi-block
    // with remainder — each must reduce to identical per-position scores.
    const std::size_t shapes[] = {1,
                                  kLagBlock - 1,
                                  kLagBlock,
                                  kLagBlock + 1,
                                  2 * kLagBlock,
                                  2 * kLagBlock + 5};
    const std::size_t pos_count = shapes[trial % 6];
    const std::size_t pos_lo = static_cast<std::size_t>(rng.uniform() * 7.0);
    const std::size_t metres =
        pos_lo + (pos_count - 1) * stride + window + 3;
    const auto fixed_t = random_context(rng, window, channels, usable);
    const auto slide_t = random_context(rng, metres, channels, usable);
    const Operand fixed(fixed_t, channels, 0, window);
    const Operand slide(slide_t, channels, 0, metres);
    expect_batch_matches_scalar<std::int16_t>(fixed.v16(), slide.v16(),
                                              pos_lo, pos_count, window,
                                              stride, config, "int16");
    expect_batch_matches_scalar<std::int8_t>(fixed.v8(), slide.v8(), pos_lo,
                                             pos_count, window, stride,
                                             config, "int8");
  }
}

TEST(QuantKernel, RoundTripWithinHalfStep) {
  util::Rng rng(4242);
  const std::size_t channels = 20;
  const std::size_t metres = 150;
  const auto t = random_context(rng, metres, channels, 0.8);
  const Operand op(t, channels, 0, metres);
  const PackedSpan fs = op.pack.span();
  for (auto [bits, qmax] :
       {std::pair{QuantBits::kInt16, kQuantMax16},
        std::pair{QuantBits::kInt8, kQuantMax8}}) {
    const bool wide = bits == QuantBits::kInt16;
    const QuantParams& params = wide ? op.q16.params() : op.q8.params();
    ASSERT_TRUE(std::isfinite(params.offset));
    ASSERT_GT(params.step, 0.0);
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t i = 0; i < metres; ++i) {
        const float x = fs.x[c * fs.stride + i];
        const float fv = fs.v[c * fs.stride + i];
        const std::size_t qstride =
            wide ? op.q16.span16().stride : op.q8.span8().stride;
        const int q = wide ? op.q16.span16().q[c * qstride + i]
                           : op.q8.span8().q[c * qstride + i];
        const int v = wide ? op.q16.span16().v[c * qstride + i]
                           : op.q8.span8().v[c * qstride + i];
        EXPECT_EQ(v, fv != 0.0f ? 1 : 0);
        EXPECT_LE(std::abs(q), qmax);
        if (fv == 0.0f) {
          EXPECT_EQ(q, 0);
          continue;
        }
        const double back = params.offset + q * params.step;
        EXPECT_LE(std::abs(back - static_cast<double>(x)),
                  params.step * 0.5 + 1e-9)
            << "channel " << c << " metre " << i;
      }
    }
  }
}

TEST(QuantKernel, DbmOffsetInvarianceExact) {
  // Input values snapped to a 1/64 dB grid so that the +8 dB fleet-wide
  // shift is exact in float; the quantizer's affine params must then absorb
  // the shift exactly (offset moves by 8, step unchanged), making every
  // quantized value — and therefore every score — bitwise identical.
  util::Rng rng(606);
  const std::size_t channels = 30;
  const std::size_t window = 64;
  const std::size_t metres = 180;
  const double delta = 8.0;
  ContextTrajectory base_f = random_context(rng, window, channels, 0.9,
                                            1.0 / 64.0);
  ContextTrajectory base_s = random_context(rng, metres, channels, 0.9,
                                            1.0 / 64.0);
  const auto shift = [&](const ContextTrajectory& t,
                         std::size_t len) {
    ContextTrajectory out(channels, len);
    for (std::size_t i = 0; i < len; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (!t.power(i).usable(c)) continue;
        pv.set(c, static_cast<float>(static_cast<double>(t.power(i).at(c)) + delta));
      }
      out.append(GeoSample{}, std::move(pv));
    }
    return out;
  };
  const ContextTrajectory shifted_f = shift(base_f, window);
  const ContextTrajectory shifted_s = shift(base_s, metres);
  const Operand f0(base_f, channels, 0, window);
  const Operand s0(base_s, channels, 0, metres);
  const Operand f1(shifted_f, channels, 0, window);
  const Operand s1(shifted_s, channels, 0, metres);
  EXPECT_EQ(f1.q16.params().step, f0.q16.params().step);
  EXPECT_EQ(f1.q16.params().offset, f0.q16.params().offset + delta);
  const TrajectoryCorrelationConfig config{};
  const std::size_t pos_count = metres - window + 1;
  std::vector<double> a(pos_count), b(pos_count);
  quantized_correlation_batch<std::int16_t>(f0.v16(), 0, s0.v16(), 0,
                                            pos_count, window, config,
                                            a.data());
  quantized_correlation_batch<std::int16_t>(f1.v16(), 0, s1.v16(), 0,
                                            pos_count, window, config,
                                            b.data());
  for (std::size_t q = 0; q < pos_count; ++q) {
    expect_bit_equal(a[q], b[q], "dbm-offset int16", q);
  }
  quantized_correlation_batch<std::int8_t>(f0.v8(), 0, s0.v8(), 0, pos_count,
                                           window, config, a.data());
  quantized_correlation_batch<std::int8_t>(f1.v8(), 0, s1.v8(), 0, pos_count,
                                           window, config, b.data());
  for (std::size_t q = 0; q < pos_count; ++q) {
    expect_bit_equal(a[q], b[q], "dbm-offset int8", q);
  }
}

TEST(QuantKernel, ArgmaxStableUnderSubLsbPerturbation) {
  // fixed is an exact sub-window of sliding, so the true peak is a sharp
  // perfect-correlation spike; perturbing every input by less than one
  // quantization LSB must not move the argmax.
  util::Rng rng(31337);
  const std::size_t channels = 32;
  const std::size_t window = 80;
  const std::size_t metres = 400;
  const std::size_t true_pos = 211;
  const auto slide_t = random_context(rng, metres, channels, 0.9);
  ContextTrajectory fixed_t(channels, window);
  for (std::size_t i = 0; i < window; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (!slide_t.power(true_pos + i).usable(c)) continue;
      pv.set(c, static_cast<float>(static_cast<double>(slide_t.power(true_pos + i).at(c))));
    }
    fixed_t.append(GeoSample{}, std::move(pv));
  }
  const Operand fixed(fixed_t, channels, 0, window);
  const Operand slide(slide_t, channels, 0, metres);
  const double step16 = fixed.q16.params().step;
  const TrajectoryCorrelationConfig config{};
  const std::size_t pos_count = metres - window + 1;
  std::vector<double> scores(pos_count);

  const auto argmax = [&](const std::vector<double>& s) {
    std::size_t best = 0;
    for (std::size_t q = 1; q < s.size(); ++q) {
      if (s[q] > s[best]) best = q;
    }
    return best;
  };

  quantized_correlation_batch<std::int16_t>(fixed.v16(), 0, slide.v16(), 0,
                                            pos_count, window, config,
                                            scores.data());
  ASSERT_EQ(argmax(scores), true_pos);

  for (int rep = 0; rep < 5; ++rep) {
    ContextTrajectory noisy(channels, window);
    for (std::size_t i = 0; i < window; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (!fixed_t.power(i).usable(c)) continue;
        const double jitter = (rng.uniform() - 0.5) * step16;  // < ±LSB/2
        pv.set(c, static_cast<float>(
                      static_cast<double>(fixed_t.power(i).at(c)) + jitter));
      }
      noisy.append(GeoSample{}, std::move(pv));
    }
    const Operand noisy_f(noisy, channels, 0, window);
    quantized_correlation_batch<std::int16_t>(noisy_f.v16(), 0, slide.v16(),
                                              0, pos_count, window, config,
                                              scores.data());
    EXPECT_EQ(argmax(scores), true_pos) << "rep " << rep;
  }
}

TEST(QuantKernel, WindowCapEnforced) {
  util::Rng rng(12);
  const std::size_t channels = 4;
  const std::size_t metres = kQuantMaxWindowM + 10;
  const auto t = random_context(rng, metres, channels, 1.0);
  const Operand op(t, channels, 0, metres);
  const TrajectoryCorrelationConfig config{};
  double out = 0.0;
  EXPECT_THROW(quantized_correlation_batch<std::int16_t>(
                   op.v16(), 0, op.v16(), 0, 1, kQuantMaxWindowM + 1, config,
                   &out),
               std::invalid_argument);
}

using test::drive;


TEST(QuantKernel, PaperPointEstimateIdenticalAcrossPrecisions) {
  // The ctest gate from ISSUE 8: at the paper point (m=1000, w=100, k=45,
  // 10% masked) the SYN estimate — matched indices and window, i.e. the
  // quantity that becomes the relative-distance fix — must be identical at
  // kFloat32, kInt16 and kInt8, end to end through SynSeeker::find.
  const std::size_t m = 1000;
  const auto a = drive(99, 0, m, 45, 0.4, 21, {.usable_fraction = 0.9});
  const auto b = drive(99, 137, m, 45, 0.4, 22, {.usable_fraction = 0.9});
  SynConfig cfg;
  cfg.window_m = 100;
  cfg.top_channels = 45;

  std::vector<std::vector<SynPoint>> results;
  for (KernelPrecision prec : {KernelPrecision::kFloat32,
                               KernelPrecision::kInt16,
                               KernelPrecision::kInt8}) {
    cfg.precision = prec;
    results.push_back(SynSeeker(cfg).find(a, b));
  }
  ASSERT_FALSE(results[0].empty());
  for (std::size_t p = 1; p < results.size(); ++p) {
    ASSERT_EQ(results[p].size(), results[0].size()) << "precision " << p;
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(results[p][i].index_a, results[0][i].index_a);
      EXPECT_EQ(results[p][i].index_b, results[0][i].index_b);
      EXPECT_EQ(results[p][i].window_m, results[0][i].window_m);
      EXPECT_NEAR(results[p][i].correlation, results[0][i].correlation,
                  p == 1 ? kScoreBound16 : kScoreBound8);
    }
  }
}

TEST(QuantKernel, SeekerPackedAndFallbackPathsAgree) {
  // The quantized seek must produce the same SYN point whether it runs on
  // caller-maintained mirrors (PackedContext + QuantizedPack), on a bare
  // PackedContext (scratch quantization of the full pack), or on the
  // SubsetPack fallback (scratch quantization of the per-pass subsets).
  // Scores may differ between pack/subset routes (different quantization
  // grids), but each route must clear the threshold and land on the same
  // alignment.
  const auto a = drive(7, 0, 300, 30, 0.4, 5, {.usable_fraction = 0.9});
  const auto b = drive(7, 60, 300, 30, 0.4, 6, {.usable_fraction = 0.9});
  SynConfig cfg;
  cfg.window_m = 85;
  cfg.top_channels = 30;
  cfg.precision = KernelPrecision::kInt16;
  const SynSeeker seeker(cfg);

  PackedContext pa, pb;
  pa.sync(a);
  pb.sync(b);
  QuantizedPack qa, qb;
  qa.sync(pa, QuantBits::kInt16);
  qb.sync(pb, QuantBits::kInt16);

  const auto mirrored = seeker.find_one(a, b, 0, &pa, &pb, &qa, &qb);
  const auto packed_only = seeker.find_one(a, b, 0, &pa, &pb);
  const auto fallback = seeker.find_one(a, b, 0);
  ASSERT_TRUE(mirrored.has_value());
  ASSERT_TRUE(packed_only.has_value());
  ASSERT_TRUE(fallback.has_value());
  // Mirrored and packed-only quantize the same spans -> bit-identical.
  EXPECT_EQ(mirrored->index_a, packed_only->index_a);
  EXPECT_EQ(mirrored->index_b, packed_only->index_b);
  EXPECT_EQ(mirrored->correlation, packed_only->correlation);
  // The subset fallback quantizes narrower spans (different grid): same
  // alignment, score within the differential bound of itself.
  EXPECT_EQ(mirrored->index_a, fallback->index_a);
  EXPECT_EQ(mirrored->index_b, fallback->index_b);
  EXPECT_NEAR(mirrored->correlation, fallback->correlation,
              2.0 * kScoreBound16);
}

}  // namespace
}  // namespace rups::core
