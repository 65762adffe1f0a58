// Integration tests of the RupsEngine facade on synthetic sensor streams
// (vehicle-frame; reorientation bypassed). End-to-end behaviour with the
// full sensor models is covered by test_convoy_sim.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "support/engine_drive.hpp"

namespace rups::core {
namespace {

using test::drive_engine;
using test::engine_test_config;

TEST(Engine, BuildsContextWhileDriving) {
  RupsEngine engine(engine_test_config());
  drive_engine(engine, 0.0, 300.0, 10.0, 1);
  EXPECT_TRUE(engine.calibrated());
  EXPECT_NEAR(engine.odometer_m(), 300.0, 2.0);
  EXPECT_NEAR(static_cast<double>(engine.context().size()), 300.0, 3.0);
  EXPECT_GT(engine.context().measured_fraction(), 0.1);
  EXPECT_NEAR(engine.heading_rad(), 0.0, 0.05);
}

TEST(Engine, ContextIsBoundedByCapacity) {
  RupsConfig cfg = engine_test_config();
  cfg.context_capacity_m = 150;
  RupsEngine engine(cfg);
  drive_engine(engine, 0.0, 400.0, 12.0, 2);
  EXPECT_EQ(engine.context().size(), 150u);
  EXPECT_GT(engine.context().first_metre(), 200u);
}

TEST(Engine, TwoEnginesResolveRelativeDistance) {
  RupsEngine rear(engine_test_config());
  RupsEngine front(engine_test_config());
  drive_engine(rear, 0.0, 250.0, 10.0, 3);
  drive_engine(front, 70.0, 250.0, 10.0, 4);  // 70 m ahead on the same road

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
  RupsEngine rear(engine_test_config());
  RupsEngine front(engine_test_config());
  drive_engine(rear, 0.0, 250.0, 8.0, 5);
  drive_engine(front, 40.0, 250.0, 14.0, 6);
  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->distance_m, -40.0, 5.0);
}

TEST(Engine, NoSpeedMeansNoTrajectory) {
  RupsEngine engine(engine_test_config());
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
  RupsEngine a(engine_test_config());
  RupsEngine b(engine_test_config());
  drive_engine(a, 0.0, 200.0, 10.0, 7);
  // b drives a "different road": offset so far that fields are unrelated
  // (the hashed field decorrelates within ~10 m).
  drive_engine(b, 100'000.0, 200.0, 10.0, 8);
  EXPECT_FALSE(a.estimate_distance(b.context()).has_value());
  EXPECT_TRUE(a.find_syn_points(b.context()).empty());
}

TEST(Engine, MultiSynAggregationUsesConfiguredScheme) {
  RupsConfig cfg = engine_test_config();
  cfg.syn.syn_points = 5;
  cfg.syn.syn_segment_spacing_m = 20;
  cfg.aggregation = Aggregation::kSelectiveMean;
  RupsEngine rear(cfg);
  RupsEngine front(cfg);
  drive_engine(rear, 0.0, 300.0, 10.0, 9);
  drive_engine(front, 50.0, 300.0, 10.0, 10);
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
  RupsConfig cfg = engine_test_config();
  cfg.binder.max_interpolation_gap_m = 200;
  RupsEngine ego(cfg);
  RupsEngine neighbour(cfg);
  drive_engine(neighbour, 0.0, 200.0, 10.0, 12);
  const SynSeeker reference(cfg.syn);
  std::size_t compared = 0;
  drive_engine(
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
  RupsEngine clean(engine_test_config());
  drive_engine(clean, 0.0, 100.0, 10.0, 13);
  obs::Counter& rejected = rejected_input("non_finite_imu_time");
  [[maybe_unused]] const std::uint64_t before = rejected.value();
  RupsEngine engine(engine_test_config());
  std::uint64_t injected = 0;
  drive_engine(engine, 0.0, 100.0, 10.0, 13, nullptr, [&] {
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
  RupsEngine clean(engine_test_config());
  drive_engine(clean, 0.0, 100.0, 10.0, 14);
  obs::Counter& bad_speed = rejected_input("non_finite_speed");
  obs::Counter& bad_time = rejected_input("non_finite_speed_time");
  [[maybe_unused]] const std::uint64_t before_speed = bad_speed.value();
  [[maybe_unused]] const std::uint64_t before_time = bad_time.value();
  RupsEngine engine(engine_test_config());
  double second = 0.0;
  drive_engine(engine, 0.0, 100.0, 10.0, 14, nullptr, [&] {
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
  RupsEngine clean(engine_test_config());
  drive_engine(clean, 0.0, 100.0, 10.0, 15);
  obs::Counter& bad_level = rejected_input("non_finite_rssi");
  obs::Counter& bad_time = rejected_input("non_finite_rssi_time");
  [[maybe_unused]] const std::uint64_t before_level = bad_level.value();
  [[maybe_unused]] const std::uint64_t before_time = bad_time.value();
  RupsEngine engine(engine_test_config());
  double second = 0.0;
  drive_engine(engine, 0.0, 100.0, 10.0, 15, nullptr, [&] {
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
  RupsEngine clean(engine_test_config());
  RupsEngine engine(engine_test_config());
  drive_engine(clean, 0.0, 100.0, 10.0, 16);
  drive_engine(engine, 0.0, 100.0, 10.0, 16);
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
  RupsEngine fast(engine_test_config());
  fast.on_speed({0.0, 90.0});
  EXPECT_EQ(implausible.value() - before, 1u);
  imu.time_s = 10.505;
  clean.on_imu(imu);
  engine.on_imu(imu);
  EXPECT_EQ(engine.odometer_m(), clean.odometer_m());
  EXPECT_EQ(engine.context().size(), clean.context().size());
  EXPECT_EQ(engine.context().first_metre(), clean.context().first_metre());
}

TEST(Engine, FarImuTimeJumpMovesNothing) {
  // One IMU sample an hour late used to integrate the whole hour at the
  // held 10 m/s: 36,000 fabricated metres that evicted the whole context.
  // A jump to 1e15 s never returned.
  RupsEngine engine(engine_test_config());
  drive_engine(engine, 0.0, 100.0, 10.0, 17);
  obs::Counter& gap = rejected_input("imu_gap");
  const std::uint64_t before = gap.value();
  const double odometer = engine.odometer_m();
  const std::size_t size = engine.context().size();
  const std::uint64_t first = engine.context().first_metre();
  ASSERT_GT(size, 90u);
  sensors::ImuSample imu;
  imu.accel_mps2 = {0.0, 0.0, 9.80665};
  imu.mag_ut = {-30.0, 0.0, -35.0};
  imu.time_s = 3610.0;
  engine.on_imu(imu);
  ASSERT_EQ(engine.odometer_m(), odometer);
  EXPECT_EQ(engine.context().size(), size);
  EXPECT_EQ(engine.context().first_metre(), first);
  EXPECT_EQ(gap.value() - before, 1u);
  // The clocks re-anchored at the late sample: one more second of 5 ms
  // steps drives 10 m at the held speed.
  const auto drive_second = [&](double from_s) {
    for (int i = 1; i <= 200; ++i) {
      imu.time_s = from_s + 0.005 * i;
      engine.on_imu(imu);
    }
  };
  drive_second(3610.0);
  EXPECT_NEAR(engine.odometer_m(), odometer + 10.0, 1e-6);
  // A glitch to 1e15 s and straight back costs one step each way.
  const double resumed = engine.odometer_m();
  imu.time_s = 1e15;
  engine.on_imu(imu);
  EXPECT_EQ(engine.odometer_m(), resumed);
  drive_second(3611.0);
  EXPECT_EQ(gap.value() - before, 3u);
  EXPECT_NEAR(engine.odometer_m(), resumed + 199 * 0.05, 1e-6);
  EXPECT_EQ(engine.context().first_metre(), first);
}

}  // namespace
}  // namespace rups::core
