#include "obs/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"
#include "util/json.hpp"

namespace rups::obs {

using util::json_number;

namespace {

/// Linear-interpolated order statistic of a rolling window, q in [0, 1].
double window_quantile(const util::RingBuffer<double>& window, double q) {
  if (window.empty()) return 0.0;
  std::vector<double> sorted = window.to_vector();
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string HealthReport::to_json() const {
  std::string out = "{\n";
  out += "    \"samples\": " + std::to_string(samples) + ",\n";
  out += "    \"availability\": " + json_number(availability) + ",\n";
  out += "    \"error_p95_m\": " + json_number(error_p95_m) + ",\n";
  out += "    \"latency_p99_us\": " + json_number(latency_p99_us) + ",\n";
  out += "    \"miss_streak\": " + std::to_string(miss_streak) + ",\n";
  out += "    \"exchanges\": " + std::to_string(exchanges) + ",\n";
  out += "    \"delivery_failure_rate\": " +
         json_number(delivery_failure_rate) + ",\n";
  out += "    \"degraded_rate\": " + json_number(degraded_rate) + ",\n";
  out += "    \"admissions\": " + std::to_string(admissions) + ",\n";
  out += "    \"admission_reject_rate\": " +
         json_number(admission_reject_rate) + ",\n";
  out += "    \"log_suppressed\": " + std::to_string(log_suppressed) + ",\n";
  out += "    \"recorder_overwritten\": " +
         std::to_string(recorder_overwritten) + ",\n";
  out += "    \"healthy\": " + std::string(healthy() ? "true" : "false") +
         ",\n";
  out += "    \"alerts\": [";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const HealthAlert& a = alerts[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"rule\": \"" + a.rule +
           "\", \"value\": " + json_number(a.value) +
           ", \"threshold\": " + json_number(a.threshold) +
           ", \"ts_us\": " + json_number(a.ts_us) +
           ", \"sample_index\": " + std::to_string(a.sample_index) + "}";
  }
  out += alerts.empty() ? "]\n" : "\n    ]\n";
  out += "  }";
  return out;
}

HealthMonitor::HealthMonitor(HealthConfig config)
    : config_(config),
      hits_(config.window == 0 ? 1 : config.window),
      errors_(config.window == 0 ? 1 : config.window),
      latencies_(config.window == 0 ? 1 : config.window),
      deliveries_(config.window == 0 ? 1 : config.window),
      admitted_(config.window == 0 ? 1 : config.window) {
  config_.window = hits_.capacity();
}

void HealthMonitor::on_query(bool hit, std::optional<double> abs_error_m,
                             double latency_us) {
  ++samples_;
  hits_.push(hit ? 1 : 0);
  if (abs_error_m.has_value()) errors_.push(std::abs(*abs_error_m));
  latencies_.push(latency_us);
  miss_streak_ = hit ? 0 : miss_streak_ + 1;
  evaluate();
}

void HealthMonitor::on_exchange(bool usable, bool degraded) {
  ++exchanges_;
  deliveries_.push(usable ? (degraded ? 1 : 0) : 2);

  double failures = 0.0;
  for (std::size_t i = 0; i < deliveries_.size(); ++i) {
    if (deliveries_[i] == 2) failures += 1.0;
  }
  const double failure_rate =
      deliveries_.empty()
          ? 0.0
          : failures / static_cast<double>(deliveries_.size());
  Registry& reg = Registry::global();
  reg.gauge("health.delivery_failure_rate").set(failure_rate);
  reg.gauge("health.exchanges").set(static_cast<double>(exchanges_));

  if (exchanges_ < config_.min_exchanges) return;
  fire("delivery_failure", "health.delivery_failure", armed_delivery_,
       config_.max_delivery_failure_rate > 0.0 &&
           failure_rate > config_.max_delivery_failure_rate,
       failure_rate, config_.max_delivery_failure_rate);
}

void HealthMonitor::on_admission(bool accepted) {
  ++admissions_;
  admitted_.push(accepted ? 1 : 0);

  double rejected = 0.0;
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    if (admitted_[i] == 0) rejected += 1.0;
  }
  const double reject_rate =
      admitted_.empty() ? 0.0
                        : rejected / static_cast<double>(admitted_.size());
  Registry& reg = Registry::global();
  reg.gauge("health.admission_reject_rate").set(reject_rate);
  reg.gauge("health.admissions").set(static_cast<double>(admissions_));

  if (admissions_ < config_.min_admissions) return;
  fire("admission_reject", "health.admission_reject", armed_admission_,
       config_.max_admission_reject_rate > 0.0 &&
           reject_rate > config_.max_admission_reject_rate,
       reject_rate, config_.max_admission_reject_rate);
}

void HealthMonitor::evaluate() {
  double window_hits = 0.0;
  for (std::size_t i = 0; i < hits_.size(); ++i) window_hits += hits_[i];
  const double availability =
      hits_.empty() ? 0.0 : window_hits / static_cast<double>(hits_.size());
  const double error_p95 = window_quantile(errors_, 0.95);
  const double latency_p99 = window_quantile(latencies_, 0.99);

  Registry& reg = Registry::global();
  reg.gauge("health.availability").set(availability);
  reg.gauge("health.error_p95_m").set(error_p95);
  reg.gauge("health.latency_p99_us").set(latency_p99);
  reg.gauge("health.miss_streak").set(static_cast<double>(miss_streak_));
  reg.gauge("health.alerts").set(static_cast<double>(alerts_.size()));

  if (samples_ < config_.min_samples) return;

  fire("availability", "health.availability", armed_availability_,
       config_.min_availability > 0.0 && availability < config_.min_availability,
       availability, config_.min_availability);
  fire("error_p95", "health.error_p95", armed_error_,
       config_.max_error_p95_m > 0.0 && !errors_.empty() &&
           error_p95 > config_.max_error_p95_m,
       error_p95, config_.max_error_p95_m);
  fire("latency_p99", "health.latency_p99", armed_latency_,
       config_.max_latency_p99_us > 0.0 &&
           latency_p99 > config_.max_latency_p99_us,
       latency_p99, config_.max_latency_p99_us);
  fire("miss_streak", "health.miss_streak", armed_streak_,
       config_.max_miss_streak > 0 && miss_streak_ >= config_.max_miss_streak,
       static_cast<double>(miss_streak_),
       static_cast<double>(config_.max_miss_streak));
}

void HealthMonitor::fire(const char* rule, const char* anomaly_label,
                         bool& armed, bool violated, double value,
                         double threshold) {
  if (!violated) {
    armed = true;  // excursion over; the rule may fire again
    return;
  }
  if (!armed) return;  // already reported this excursion
  armed = false;

  HealthAlert alert;
  alert.rule = rule;
  alert.value = value;
  alert.threshold = threshold;
  alert.ts_us = now_us();
  alert.sample_index = samples_;
  alerts_.push_back(alert);
  Registry::global().gauge("health.alerts").set(
      static_cast<double>(alerts_.size()));

  const std::string detail = std::string(rule) + " " + json_number(value) +
                             " violates threshold " + json_number(threshold) +
                             " at query " + std::to_string(samples_);
  FlightRecorder::global().anomaly(anomaly_label, detail);
  RUPS_LOG(kWarn) << "health alert: " << detail;
}

HealthReport HealthMonitor::report() const {
  HealthReport r;
  r.samples = samples_;
  double window_hits = 0.0;
  for (std::size_t i = 0; i < hits_.size(); ++i) window_hits += hits_[i];
  r.availability =
      hits_.empty() ? 0.0 : window_hits / static_cast<double>(hits_.size());
  r.error_p95_m = window_quantile(errors_, 0.95);
  r.latency_p99_us = window_quantile(latencies_, 0.99);
  r.miss_streak = miss_streak_;
  r.exchanges = exchanges_;
  double failures = 0.0;
  double degraded = 0.0;
  for (std::size_t i = 0; i < deliveries_.size(); ++i) {
    if (deliveries_[i] == 2) failures += 1.0;
    if (deliveries_[i] == 1) degraded += 1.0;
  }
  if (!deliveries_.empty()) {
    r.delivery_failure_rate =
        failures / static_cast<double>(deliveries_.size());
    r.degraded_rate = degraded / static_cast<double>(deliveries_.size());
  }
  r.admissions = admissions_;
  double rejected = 0.0;
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    if (admitted_[i] == 0) rejected += 1.0;
  }
  if (!admitted_.empty()) {
    r.admission_reject_rate =
        rejected / static_cast<double>(admitted_.size());
  }
  r.log_suppressed = Logger::global().total_suppressed();
  r.recorder_overwritten = FlightRecorder::global().overwritten();
  r.alerts = alerts_;
  return r;
}

}  // namespace rups::obs
