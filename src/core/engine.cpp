#include "core/engine.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::core {

namespace {

/// Front-end ingest and query-path accounting (paper Sec. V-A argues the
/// perception overhead is negligible; these counters let benches verify).
struct EngineMetrics {
  obs::Counter& imu_samples =
      obs::Registry::global().counter("engine.imu_samples");
  obs::Counter& speed_samples =
      obs::Registry::global().counter("engine.speed_samples");
  obs::Counter& rssi_measurements =
      obs::Registry::global().counter("engine.rssi_measurements");
  obs::Counter& metres_emitted =
      obs::Registry::global().counter("engine.metres_emitted");
  obs::Counter& queries = obs::Registry::global().counter("engine.queries");
  obs::Histogram& estimate_us =
      obs::Registry::global().histogram("engine.estimate_us");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

/// Count a refused sensor sample. The family is registered on the first
/// rejection, so clean runs export exactly the metrics they did before.
void reject_input(const char* reason) {
  obs::Registry::global()
      .counter_family("engine.rejected_input", "reason")
      .with(reason)
      .inc();
}

}  // namespace

RupsEngine::RupsEngine(RupsConfig config)
    : config_(config),
      reorientation_(config.reorientation),
      heading_(config.heading_mag_gain),
      binder_(config.channels, config.binder),
      context_(config.channels, config.context_capacity_m),
      seeker_(config.syn) {}

void RupsEngine::on_imu(const sensors::ImuSample& imu) {
  // A non-finite timestamp would poison the IMU clock for good.
  if (!std::isfinite(imu.time_s)) {
    reject_input("non_finite_imu_time");
    return;
  }
  double dt = have_imu_time_ ? imu.time_s - last_imu_time_ : 0.0;
  last_imu_time_ = imu.time_s;
  have_imu_time_ = true;
  // A far jump would integrate its whole span at the held speed; moving
  // nothing and restarting the clocks here keeps the context intact.
  if (std::abs(dt) > kMaxImuGapS) {
    reject_input("imu_gap");
    reckoner_.reanchor(imu.time_s, speed_.speed_at(imu.time_s));
    return;
  }
  engine_metrics().imu_samples.inc();
  if (dt < 0.0) dt = 0.0;

  if (!config_.assume_aligned_sensors) {
    reorientation_.add_sample(imu, speed_.trend());
    if (!reorientation_.calibrated()) return;
  }
  const util::Mat3 r = config_.assume_aligned_sensors
                           ? util::Mat3::identity()
                           : reorientation_.rotation();
  const util::Vec3 gyro_vehicle = r * imu.gyro_rps;
  const util::Vec3 mag_vehicle = r * imu.mag_ut;
  heading_.update(gyro_vehicle.z, dt, &mag_vehicle);
  if (!heading_.initialized()) return;

  const double speed = speed_.speed_at(imu.time_s);
  const auto marks =
      reckoner_.advance(imu.time_s, heading_.heading_rad(), speed);
  if (!marks.empty()) engine_metrics().metres_emitted.inc(marks.size());
  for (const GeoSample& geo : marks) {
    binder_.bind_metre(next_metre_++, geo, context_);
  }
}

void RupsEngine::on_speed(const sensors::SpeedSample& sample) {
  // Refused before the speed model sees it: an infinite speed would make
  // the dead reckoner emit metres forever.
  if (!std::isfinite(sample.time_s)) {
    reject_input("non_finite_speed_time");
    return;
  }
  if (!std::isfinite(sample.speed_mps)) {
    reject_input("non_finite_speed");
    return;
  }
  // A finite but absurd report would make the next IMU step emit
  // thousands of fabricated metres and evict the whole context.
  if (sample.speed_mps > kMaxPlausibleSpeedMps) {
    reject_input("implausible_speed");
    return;
  }
  engine_metrics().speed_samples.inc();
  speed_.add_sample(sample);
}

void RupsEngine::on_rssi(const sensors::RssiMeasurement& measurement) {
  // A NaN level would be bound (and interpolated) into usable slots; a
  // non-finite time has no odometer position.
  if (!std::isfinite(measurement.time_s)) {
    reject_input("non_finite_rssi_time");
    return;
  }
  if (!std::isfinite(measurement.rssi_dbm)) {
    reject_input("non_finite_rssi");
    return;
  }
  engine_metrics().rssi_measurements.inc();
  const double distance = reckoner_.odometer_at(measurement.time_s);
  binder_.add_measurement(measurement.channel_index, distance,
                          static_cast<float>(measurement.rssi_dbm), context_);
}

std::vector<SynPoint> RupsEngine::find_syn_points(
    const ContextTrajectory& neighbour) const {
  // The local pack only changes by the metres driven since the last query;
  // sync extends it incrementally instead of re-extracting per query.
  context_pack_.sync(context_, pack_volatile_suffix_m(config_.binder));
  std::vector<SynPoint> syns;
  seeker_.find_into(context_, neighbour, &context_pack_, nullptr, nullptr,
                    nullptr, seek_scratch_, syns);
  return syns;
}

std::optional<RelativeDistanceEstimate> RupsEngine::estimate_distance(
    const ContextTrajectory& neighbour) const {
  engine_metrics().queries.inc();
  obs::ObsTimer timer(&engine_metrics().estimate_us, "engine.estimate");
  const auto syns = find_syn_points(neighbour);
  auto estimate =
      aggregate_estimates(context_, neighbour, syns, config_.aggregation);
  if (estimate.has_value()) {
    obs::FlightRecorder::global().record(
        obs::EventType::kEstimateEmitted, "engine.estimate",
        estimate->distance_m, estimate->confidence,
        static_cast<double>(syns.size()));
  } else {
    obs::FlightRecorder::global().record(obs::EventType::kEstimateMissing,
                                         "engine.estimate", 0.0, 0.0,
                                         static_cast<double>(syns.size()));
  }
  return estimate;
}

}  // namespace rups::core
