// Integration tests of the RupsEngine facade on synthetic sensor streams
// (vehicle-frame; reorientation bypassed). End-to-end behaviour with the
// full sensor models is covered by test_convoy_sim.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "obs/metrics.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace rups::core {
namespace {

constexpr std::size_t kChannels = 24;

float road_rssi(std::int64_t metre, std::size_t ch) {
  const util::HashNoise chan_noise(0xF00D);
  const util::LatticeField1D spatial(util::hash_combine(9, ch), 8.0, 2);
  return static_cast<float>(-95.0 +
                            40.0 * chan_noise.uniform(static_cast<std::int64_t>(ch)) +
                            6.0 * spatial.value(static_cast<double>(metre)));
}

RupsConfig test_config() {
  RupsConfig cfg;
  cfg.channels = kChannels;
  cfg.assume_aligned_sensors = true;
  cfg.syn.window_m = 40;
  cfg.syn.top_channels = 16;
  return cfg;
}

/// Drives an engine over the synthetic road: constant speed, straight
/// east, scanning all channels every `sweep_s`. A channel for which
/// `silent(road_m, channel)` holds is not heard; `every_second` runs once
/// per simulated second.
void drive(RupsEngine& engine, double start_road_m, double distance_m,
           double speed_mps, std::uint64_t noise_seed,
           bool (*silent)(double, std::size_t) = nullptr,
           const std::function<void()>& every_second = {}) {
  util::Rng rng(noise_seed);
  const double dt = 0.005;
  const double duration = distance_m / speed_mps;
  double next_obd = 0.0;
  double next_dwell = 0.0;
  double next_second = 1.0;
  std::size_t dwell_channel = 0;
  for (double t = 0.0; t <= duration; t += dt) {
    if (t >= next_obd) {
      engine.on_speed({t, speed_mps});
      next_obd += 2.0;
    }
    if (every_second && t >= next_second) {
      every_second();
      next_second += 1.0;
    }
    sensors::ImuSample imu;
    imu.time_s = t;
    imu.accel_mps2 = {0.0, 0.0, 9.80665};
    imu.mag_ut = {-30.0, 0.0, -35.0};  // heading 0 (east)
    engine.on_imu(imu);
    while (t >= next_dwell) {
      const double road_pos = start_road_m + speed_mps * next_dwell;
      sensors::RssiMeasurement m;
      m.time_s = next_dwell;
      m.channel_index = dwell_channel;
      m.rssi_dbm =
          road_rssi(static_cast<std::int64_t>(std::floor(road_pos)),
                    dwell_channel) +
          rng.gaussian(0.0, 0.5);
      if (silent == nullptr || !silent(road_pos, dwell_channel)) {
        engine.on_rssi(m);
      }
      dwell_channel = (dwell_channel + 1) % kChannels;
      next_dwell += 0.015;
    }
  }
}

TEST(Engine, BuildsContextWhileDriving) {
  RupsEngine engine(test_config());
  drive(engine, 0.0, 300.0, 10.0, 1);
  EXPECT_TRUE(engine.calibrated());
  EXPECT_NEAR(engine.odometer_m(), 300.0, 2.0);
  EXPECT_NEAR(static_cast<double>(engine.context().size()), 300.0, 3.0);
  EXPECT_GT(engine.context().measured_fraction(), 0.1);
  EXPECT_NEAR(engine.heading_rad(), 0.0, 0.05);
}

TEST(Engine, ContextIsBoundedByCapacity) {
  RupsConfig cfg = test_config();
  cfg.context_capacity_m = 150;
  RupsEngine engine(cfg);
  drive(engine, 0.0, 400.0, 12.0, 2);
  EXPECT_EQ(engine.context().size(), 150u);
  EXPECT_GT(engine.context().first_metre(), 200u);
}

TEST(Engine, TwoEnginesResolveRelativeDistance) {
  RupsEngine rear(test_config());
  RupsEngine front(test_config());
  drive(rear, 0.0, 250.0, 10.0, 3);
  drive(front, 70.0, 250.0, 10.0, 4);  // 70 m ahead on the same road

  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->distance_m, -70.0, 3.0);
  EXPECT_GE(est->confidence, rear.config().syn.coherency_threshold);

  // Symmetric query from the front car.
  const auto reverse = front.estimate_distance(rear.context());
  ASSERT_TRUE(reverse.has_value());
  EXPECT_NEAR(reverse->distance_m, 70.0, 3.0);
}

TEST(Engine, DifferentSpeedsStillResolve) {
  RupsEngine rear(test_config());
  RupsEngine front(test_config());
  drive(rear, 0.0, 250.0, 8.0, 5);
  drive(front, 40.0, 250.0, 14.0, 6);
  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->distance_m, -40.0, 5.0);
}

TEST(Engine, NoSpeedMeansNoTrajectory) {
  RupsEngine engine(test_config());
  sensors::ImuSample imu;
  imu.accel_mps2 = {0.0, 0.0, 9.80665};
  imu.mag_ut = {-30.0, 0.0, -35.0};
  for (int i = 0; i < 10000; ++i) {
    imu.time_s = i * 0.005;
    engine.on_imu(imu);
  }
  EXPECT_DOUBLE_EQ(engine.odometer_m(), 0.0);
  EXPECT_TRUE(engine.context().empty());
}

TEST(Engine, UnrelatedContextsRejected) {
  RupsEngine a(test_config());
  RupsEngine b(test_config());
  drive(a, 0.0, 200.0, 10.0, 7);
  // b drives a "different road": offset so far that fields are unrelated
  // (the hashed field decorrelates within ~10 m).
  drive(b, 100'000.0, 200.0, 10.0, 8);
  EXPECT_FALSE(a.estimate_distance(b.context()).has_value());
  EXPECT_TRUE(a.find_syn_points(b.context()).empty());
}

TEST(Engine, MultiSynAggregationUsesConfiguredScheme) {
  RupsConfig cfg = test_config();
  cfg.syn.syn_points = 5;
  cfg.syn.syn_segment_spacing_m = 20;
  cfg.aggregation = Aggregation::kSelectiveMean;
  RupsEngine rear(cfg);
  RupsEngine front(cfg);
  drive(rear, 0.0, 300.0, 10.0, 9);
  drive(front, 50.0, 300.0, 10.0, 10);
  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_GE(est->syn_count, 3u);
  EXPECT_NEAR(est->distance_m, -50.0, 3.0);
}

TEST(Engine, MaintainedPackFollowsLongInterpolationGaps) {
  // A binder gap far beyond the pack's default re-pack suffix: the ego's
  // channels 0-11 fall silent on road metres 100-280, and when they return
  // the binder back-fills the whole stretch. The neighbour stopped at road
  // metre 200, so its recent window matches inside that stretch. Every
  // query through the maintained pack must score exactly like a search
  // over the unpacked contexts.
  RupsConfig cfg = test_config();
  cfg.binder.max_interpolation_gap_m = 200;
  RupsEngine ego(cfg);
  RupsEngine neighbour(cfg);
  drive(neighbour, 0.0, 200.0, 10.0, 12);
  const SynSeeker reference(cfg.syn);
  std::size_t compared = 0;
  drive(
      ego, 0.0, 400.0, 10.0, 11,
      [](double road_m, std::size_t ch) {
        return ch < 12 && road_m >= 100.0 && road_m < 280.0;
      },
      [&] {
        const auto got = ego.find_syn_points(neighbour.context());
        const auto want = reference.find(ego.context(), neighbour.context());
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].index_a, want[i].index_a);
          EXPECT_EQ(got[i].index_b, want[i].index_b);
          EXPECT_EQ(got[i].correlation, want[i].correlation);
        }
        compared += got.size();
      });
  EXPECT_GT(compared, 10u);
}

/// engine.rejected_input{reason}, registered on first use like the
/// engine registers it.
obs::Counter& rejected_input(const char* reason) {
  return obs::Registry::global()
      .counter_family("engine.rejected_input", "reason")
      .with(reason);
}

TEST(Engine, NonFiniteImuTimeIsRejected) {
  // One NaN timestamp used to poison the IMU clock: every later dt was NaN,
  // the trajectory froze and the odometer read NaN.
  RupsEngine clean(test_config());
  drive(clean, 0.0, 100.0, 10.0, 13);
  obs::Counter& rejected = rejected_input("non_finite_imu_time");
  [[maybe_unused]] const std::uint64_t before = rejected.value();
  RupsEngine engine(test_config());
  std::uint64_t injected = 0;
  drive(engine, 0.0, 100.0, 10.0, 13, nullptr, [&] {
    sensors::ImuSample bad;
    bad.time_s = std::numeric_limits<double>::quiet_NaN();
    engine.on_imu(bad);
    ++injected;
  });
  ASSERT_GT(injected, 0u);
  EXPECT_TRUE(std::isfinite(engine.odometer_m()));
  EXPECT_EQ(engine.odometer_m(), clean.odometer_m());
  EXPECT_EQ(engine.context().size(), clean.context().size());
  EXPECT_EQ(rejected.value() - before, injected);
}

TEST(Engine, NonFiniteSpeedSampleIsRejected) {
  // One +inf OBD speed used to make the next on_imu loop forever in the
  // dead reckoner.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RupsEngine clean(test_config());
  drive(clean, 0.0, 100.0, 10.0, 14);
  obs::Counter& bad_speed = rejected_input("non_finite_speed");
  obs::Counter& bad_time = rejected_input("non_finite_speed_time");
  [[maybe_unused]] const std::uint64_t before_speed = bad_speed.value();
  [[maybe_unused]] const std::uint64_t before_time = bad_time.value();
  RupsEngine engine(test_config());
  double second = 0.0;
  drive(engine, 0.0, 100.0, 10.0, 14, nullptr, [&] {
    second += 1.0;
    if (second == 5.0) engine.on_speed({second, inf});
  });
  ASSERT_GE(second, 5.0);
  EXPECT_EQ(engine.odometer_m(), clean.odometer_m());
  EXPECT_EQ(engine.context().size(), clean.context().size());
  // NaN speeds and report times are refused the same way.
  engine.on_speed({second + 1.0, nan});
  engine.on_speed({nan, 10.0});
  EXPECT_EQ(bad_speed.value() - before_speed, 2u);
  EXPECT_EQ(bad_time.value() - before_time, 1u);
}

TEST(Engine, NonFiniteRssiIsRejected) {
  // One NaN level used to be bound into a usable slot and interpolated
  // into two more, which the codec then converted to an integer.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RupsEngine clean(test_config());
  drive(clean, 0.0, 100.0, 10.0, 15);
  obs::Counter& bad_level = rejected_input("non_finite_rssi");
  obs::Counter& bad_time = rejected_input("non_finite_rssi_time");
  [[maybe_unused]] const std::uint64_t before_level = bad_level.value();
  [[maybe_unused]] const std::uint64_t before_time = bad_time.value();
  RupsEngine engine(test_config());
  double second = 0.0;
  drive(engine, 0.0, 100.0, 10.0, 15, nullptr, [&] {
    second += 1.0;
    engine.on_rssi({second, second == 5.0 ? 3u : 7u, nan, 0});
  });
  ASSERT_GE(second, 5.0);
  engine.on_rssi({nan, 2, -80.0, 0});
  const ContextTrajectory& ctx = engine.context();
  ASSERT_EQ(ctx.size(), clean.context().size());
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    for (std::size_t c = 0; c < ctx.channels(); ++c) {
      if (ctx.power(i).usable(c)) {
        EXPECT_TRUE(std::isfinite(ctx.power(i).at(c))) << i << "/" << c;
      }
    }
  }
  EXPECT_EQ(bad_level.value() - before_level, static_cast<std::uint64_t>(second));
  EXPECT_EQ(bad_time.value() - before_time, 1u);
}

TEST(Engine, ImplausibleSpeedIsRejected) {
  // One 1e6 m/s OBD report used to make the next 5 ms IMU step emit
  // thousands of fabricated metres, evicting the whole context.
  RupsEngine clean(test_config());
  RupsEngine engine(test_config());
  drive(clean, 0.0, 100.0, 10.0, 16);
  drive(engine, 0.0, 100.0, 10.0, 16);
  obs::Counter& implausible = rejected_input("implausible_speed");
  [[maybe_unused]] const std::uint64_t before = implausible.value();
  sensors::ImuSample imu;
  imu.accel_mps2 = {0.0, 0.0, 9.80665};
  imu.mag_ut = {-30.0, 0.0, -35.0};
  imu.time_s = 10.5;
  clean.on_imu(imu);
  engine.on_imu(imu);
  engine.on_speed({10.5, 1e6});
  // Checked before the next IMU step, which would otherwise integrate it.
  ASSERT_EQ(implausible.value() - before, 1u);
  // A fast but plausible report is kept.
  RupsEngine fast(test_config());
  fast.on_speed({0.0, 90.0});
  EXPECT_EQ(implausible.value() - before, 1u);
  imu.time_s = 10.505;
  clean.on_imu(imu);
  engine.on_imu(imu);
  EXPECT_EQ(engine.odometer_m(), clean.odometer_m());
  EXPECT_EQ(engine.context().size(), clean.context().size());
  EXPECT_EQ(engine.context().first_metre(), clean.context().first_metre());
}

}  // namespace
}  // namespace rups::core
