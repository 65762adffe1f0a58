// Property-based tests: randomized invariants that must hold for ANY input,
// swept over seeds with parameterized gtest.

#include <gtest/gtest.h>

#include <cmath>
#include <deque>

#include "core/correlation.hpp"
#include "core/resolver.hpp"
#include "core/types.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "v2v/codec.hpp"
#include "v2v/wsm.hpp"

namespace rups {
namespace {

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  util::Rng rng_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Values(1ULL, 17ULL, 555ULL, 90210ULL,
                                           0xDEADBEEFULL));

// --- util ---

TEST_P(PropertySweep, PearsonAlwaysWithinUnitInterval) {
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng_.uniform_int(2, 40));
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng_.uniform(-1000.0, 1000.0);
      b[i] = rng_.bernoulli(0.3) ? a[i] : rng_.uniform(-1000.0, 1000.0);
    }
    const double r = util::pearson(a, b);
    EXPECT_GE(r, -1.0 - 1e-9);
    EXPECT_LE(r, 1.0 + 1e-9);
    EXPECT_NEAR(util::pearson(b, a), r, 1e-9);  // symmetric
  }
}

TEST_P(PropertySweep, PercentileMonotoneInQ) {
  std::vector<double> xs;
  for (int i = 0; i < 60; ++i) xs.push_back(rng_.gaussian(0, 10));
  double prev = -1e18;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double p = util::percentile(xs, q);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST_P(PropertySweep, RunningStatsMatchesBatch) {
  util::RunningStats rs;
  std::vector<double> xs;
  const auto n = static_cast<std::size_t>(rng_.uniform_int(2, 200));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng_.uniform(-50.0, 50.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), util::mean(xs), 1e-9);
  EXPECT_NEAR(rs.stddev(), util::stddev(xs), 1e-9);
}

TEST_P(PropertySweep, RingBufferBehavesLikeBoundedDeque) {
  const auto cap = static_cast<std::size_t>(rng_.uniform_int(1, 16));
  util::RingBuffer<int> rb(cap);
  std::deque<int> model;
  for (int step = 0; step < 300; ++step) {
    const int v = static_cast<int>(rng_.uniform_int(-100, 100));
    rb.push(v);
    model.push_back(v);
    if (model.size() > cap) model.pop_front();
    ASSERT_EQ(rb.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(rb[i], model[i]);
    }
  }
}

// --- core ---

core::ContextTrajectory random_trajectory(util::Rng& rng, std::size_t metres,
                                          std::size_t channels) {
  core::ContextTrajectory traj(channels, metres + 4);
  for (std::size_t i = 0; i < metres; ++i) {
    core::PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      const double u = rng.uniform();
      if (u < 0.5) {
        pv.set(c, static_cast<float>(rng.uniform(-110.0, -48.0)));
      } else if (u < 0.7) {
        pv.set(c, static_cast<float>(rng.uniform(-110.0, -48.0)),
               core::ChannelState::kInterpolated);
      }
    }
    traj.append(core::GeoSample{rng.uniform(-3.14, 3.14), rng.uniform(0, 1e4)},
                std::move(pv));
  }
  return traj;
}

TEST_P(PropertySweep, TrajectoryCorrelationBoundedAndSelfMaximal) {
  const auto t = random_trajectory(rng_, 80, 12);
  std::vector<std::size_t> chans{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  for (int trial = 0; trial < 20; ++trial) {
    const auto s1 = static_cast<std::size_t>(rng_.uniform_int(0, 40));
    const auto s2 = static_cast<std::size_t>(rng_.uniform_int(0, 40));
    const double r = core::trajectory_correlation({&t, s1}, {&t, s2}, 40,
                                                  chans);
    EXPECT_GE(r, -2.0);
    EXPECT_LE(r, 2.0 + 1e-9);
    if (s1 == s2 && r > -2.0) {
      EXPECT_NEAR(r, 2.0, 1e-6);
    }
  }
}

TEST_P(PropertySweep, ResolveDistanceAntisymmetric) {
  const auto a = random_trajectory(rng_, 100, 4);
  const auto b = random_trajectory(rng_, 120, 4);
  for (int trial = 0; trial < 25; ++trial) {
    const auto w = static_cast<std::size_t>(rng_.uniform_int(5, 30));
    core::SynPoint ab;
    ab.index_a = static_cast<std::size_t>(rng_.uniform_int(0, 60));
    ab.index_b = static_cast<std::size_t>(rng_.uniform_int(0, 80));
    ab.window_m = w;
    const core::SynPoint ba{ab.index_b, ab.index_a, w, 0.0};
    EXPECT_DOUBLE_EQ(core::resolve_distance(a, b, ab),
                     -core::resolve_distance(b, a, ba));
  }
}

TEST_P(PropertySweep, AggregationWithinEstimateRange) {
  const auto a = random_trajectory(rng_, 100, 4);
  const auto b = random_trajectory(rng_, 100, 4);
  std::vector<core::SynPoint> syns;
  const int n = static_cast<int>(rng_.uniform_int(1, 9));
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < n; ++i) {
    core::SynPoint s;
    s.index_a = static_cast<std::size_t>(rng_.uniform_int(0, 70));
    s.index_b = static_cast<std::size_t>(rng_.uniform_int(0, 70));
    s.window_m = 20;
    s.correlation = rng_.uniform(1.2, 2.0);
    syns.push_back(s);
    const double d = core::resolve_distance(a, b, s);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  for (auto scheme :
       {core::Aggregation::kSingleBest, core::Aggregation::kMean,
        core::Aggregation::kSelectiveMean, core::Aggregation::kMedian}) {
    const auto est = core::aggregate_estimates(a, b, syns, scheme);
    ASSERT_TRUE(est.has_value());
    EXPECT_GE(est->distance_m, lo - 1e-9);
    EXPECT_LE(est->distance_m, hi + 1e-9);
  }
}

// --- v2v ---

TEST_P(PropertySweep, CodecRoundTripOnRandomTrajectories) {
  const auto metres = static_cast<std::size_t>(rng_.uniform_int(1, 60));
  const auto channels = static_cast<std::size_t>(rng_.uniform_int(1, 40));
  const auto original = random_trajectory(rng_, metres, channels);
  const auto decoded =
      v2v::TrajectoryCodec::decode(v2v::TrajectoryCodec::encode(original));
  ASSERT_EQ(decoded.size(), original.size());
  ASSERT_EQ(decoded.channels(), original.channels());
  EXPECT_EQ(decoded.first_metre(), original.first_metre());
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (std::size_t c = 0; c < channels; ++c) {
      ASSERT_EQ(decoded.power(i).state(c), original.power(i).state(c));
      if (original.power(i).usable(c)) {
        ASSERT_NEAR(decoded.power(i).at(c), original.power(i).at(c), 0.51);
      }
    }
  }
}

TEST_P(PropertySweep, CodecDecodeNeverCrashesOnMutatedBytes) {
  const auto original = random_trajectory(rng_, 10, 8);
  auto bytes = v2v::TrajectoryCodec::encode(original);
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = bytes;
    const int mutations = static_cast<int>(rng_.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(rng_.uniform_int(1, 255));
    }
    if (rng_.bernoulli(0.3) && mutated.size() > 4) {
      mutated.resize(static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(mutated.size()))));
    }
    // Must either decode or throw — never crash or hang.
    try {
      (void)v2v::TrajectoryCodec::decode(mutated);
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

TEST_P(PropertySweep, WsmRoundTripArbitraryPayloads) {
  const auto size = static_cast<std::size_t>(rng_.uniform_int(1, 20'000));
  std::vector<std::uint8_t> payload(size);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
  }
  const auto max_payload =
      static_cast<std::size_t>(rng_.uniform_int(16, 1400));
  const auto packets = v2v::WsmFraming::fragment(payload, 1, max_payload);
  const auto back = v2v::WsmFraming::reassemble(packets);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

}  // namespace
}  // namespace rups
