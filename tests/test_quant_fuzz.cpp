#include "core/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/packed.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

// Fuzz harness for the quantized pack builder (ISSUE 8 satellite): random,
// NaN, ±inf and wildly out-of-range dBm inputs pushed through one-shot
// builds AND incremental sync cycles must clamp or mask — never UB. Runs in
// the asan-ubsan verify_matrix.sh lane next to test_codec_fuzz, so "no UB"
// is checked by the sanitizers while the assertions below pin the
// semantics: q on the grid, v strictly 0/1, q == 0 wherever v == 0, finite
// affine params, and every correlation of fuzzed packs finite or the -2
// sentinel.

namespace rups::core {
namespace {

float fuzz_dbm(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.05) return std::numeric_limits<float>::quiet_NaN();
  if (roll < 0.10) return std::numeric_limits<float>::infinity();
  if (roll < 0.15) return -std::numeric_limits<float>::infinity();
  if (roll < 0.20) return 3.0e38f;   // near FLT_MAX
  if (roll < 0.25) return -3.0e38f;
  if (roll < 0.30) return static_cast<float>(rng.uniform() * 2e4 - 1e4);
  return static_cast<float>(-200.0 + 300.0 * rng.uniform());  // out of range
}

ContextTrajectory fuzz_context(util::Rng& rng, std::size_t metres,
                               std::size_t channels) {
  ContextTrajectory t(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() < 0.2) continue;  // leave missing
      pv.set(c, fuzz_dbm(rng));
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

void check_invariants(const QuantSpan& s, int qmax, const char* what) {
  EXPECT_TRUE(std::isfinite(s.params.offset)) << what;
  EXPECT_TRUE(std::isfinite(s.params.step)) << what;
  EXPECT_GT(s.params.step, 0.0) << what;
  for (std::size_t c = 0; c < s.channels; ++c) {
    for (std::size_t i = 0; i < s.metres; ++i) {
      const int q = s.q[c * s.stride + i];
      const int v = s.v[c * s.stride + i];
      EXPECT_TRUE(v == 0 || v == 1) << what;
      EXPECT_LE(std::abs(q), qmax) << what;
      if (v == 0) {
        EXPECT_EQ(q, 0) << what;
      }
    }
  }
}

TEST(QuantFuzz, OneShotBuildsNeverProduceGarbage) {
  util::Rng rng(0xF00D);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t channels =
        1 + static_cast<std::size_t>(rng.uniform() * 24.0);
    const std::size_t metres =
        4 + static_cast<std::size_t>(rng.uniform() * 200.0);
    const auto t = fuzz_context(rng, metres, channels);
    std::vector<std::size_t> ids(channels);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    const SubsetPack pack(t, ids, 0, metres);
    QuantizedPack q16, q8;
    q16.build(pack.span(), KernelPrecision::kInt16);
    q8.build(pack.span(), KernelPrecision::kInt8);
    check_invariants(q16.span(), kQuantMax16, "int16 build");
    check_invariants(q8.span(), kQuantMax8, "int8 build");
    // Non-finite inputs must be masked invalid even where the float pack
    // kept the entry usable.
    const PackedSpan fs = pack.span();
    const QuantSpan qs = q16.span();
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t i = 0; i < metres; ++i) {
        if (!std::isfinite(fs.x[c * fs.stride + i])) {
          EXPECT_EQ(qs.v[c * qs.stride + i], 0);
        }
      }
    }
  }
}

TEST(QuantFuzz, SyncCyclesStayOnGrid) {
  util::Rng rng(0xBEEF);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t channels = 12;
    ContextTrajectory t(channels, 160);
    PackedContext pack;
    QuantizedPack q16, q8;
    std::size_t metres = 0;
    for (int round = 0; round < 12; ++round) {
      // Grow by a fuzzed stretch, then sync both mirrors; eviction kicks in
      // once the trajectory wraps its capacity.
      const std::size_t grow =
          1 + static_cast<std::size_t>(rng.uniform() * 40.0);
      for (std::size_t g = 0; g < grow; ++g) {
        PowerVector pv(channels);
        for (std::size_t c = 0; c < channels; ++c) {
          if (rng.uniform() < 0.15) continue;
          pv.set(c, fuzz_dbm(rng));
        }
        t.append(GeoSample{}, std::move(pv));
        ++metres;
      }
      pack.sync(t);
      q16.sync(pack, KernelPrecision::kInt16);
      q8.sync(pack, KernelPrecision::kInt8);
      ASSERT_TRUE(q16.mirrors(pack, KernelPrecision::kInt16));
      ASSERT_TRUE(q8.mirrors(pack, KernelPrecision::kInt8));
      check_invariants(q16.span(), kQuantMax16, "int16 sync");
      check_invariants(q8.span(), kQuantMax8, "int8 sync");
    }
  }
}

TEST(QuantFuzz, FuzzedCorrelationsFiniteOrSentinel) {
  util::Rng rng(0xCAFE);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t channels = 10;
    const std::size_t window =
        8 + static_cast<std::size_t>(rng.uniform() * 60.0);
    const std::size_t metres = window + 50;
    const auto ft = fuzz_context(rng, window, channels);
    const auto st = fuzz_context(rng, metres, channels);
    std::vector<std::size_t> ids(channels);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    const SubsetPack fpack(ft, ids, 0, window);
    const SubsetPack spack(st, ids, 0, metres);
    QuantizedPack qf, qs;
    qf.build(fpack.span(), KernelPrecision::kInt16);
    qs.build(spack.span(), KernelPrecision::kInt16);
    const QuantView fv{qf.span(), ids};
    const QuantView sv{qs.span(), ids};
    const std::size_t pos_count = metres - window + 1;
    std::vector<double> scores(pos_count);
    quantized_correlation_batch(fv, 0, sv, 0, pos_count, window, config,
                                scores.data());
    for (std::size_t q = 0; q < pos_count; ++q) {
      EXPECT_TRUE(std::isfinite(scores[q])) << "pos " << q;
      // The profile Pearson term is not clamped, so allow an ulp of
      // rounding headroom around the mathematical [-2, 2] range.
      EXPECT_GE(scores[q], -2.0 - 1e-9) << "pos " << q;
      EXPECT_LE(scores[q], 2.0 + 1e-9) << "pos " << q;
    }
  }
}

}  // namespace
}  // namespace rups::core
