#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "obs/alloc.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"

namespace rups::sim {

namespace {

/// Per-query latency and availability — the paper's per-query compute cost
/// (Sec. VI-E) at campaign granularity.
struct CampaignMetrics {
  obs::Counter& queries = obs::Registry::global().counter("campaign.queries");
  obs::Counter& rups_hits =
      obs::Registry::global().counter("campaign.rups_hits");
  obs::Counter& rups_misses =
      obs::Registry::global().counter("campaign.rups_misses");
  obs::Gauge& availability =
      obs::Registry::global().gauge("campaign.last_availability");
  obs::Histogram& latency_us =
      obs::Registry::global().histogram("campaign.query_latency_us");
  /// Labeled hit/miss split — the windowed series breaks the campaign's
  /// availability down per window through this family.
  obs::CounterFamily& outcomes = obs::Registry::global().counter_family(
      "campaign.query_outcome", "outcome");
  /// Sim-seconds since the last accepted estimate, per neighbour (the
  /// two-car campaign only ever populates neighbour "0").
  obs::GaugeFamily& staleness = obs::Registry::global().gauge_family(
      "estimate.staleness_s", "neighbour");
  /// operator new calls per campaign query (zero-alloc ratchet axis).
  obs::Histogram& query_allocs =
      obs::Registry::global().histogram("campaign.query_allocs");
};

CampaignMetrics& campaign_metrics() {
  static CampaignMetrics m;
  return m;
}

/// Minimal JSON view of the campaign + health configuration, embedded in
/// diagnostics bundles so a dump is interpretable on its own.
std::string config_json(const CampaignConfig& config) {
  std::string out = "{";
  out += "\"warmup_s\": " + std::to_string(config.warmup_s);
  out += ", \"interval_s\": " + std::to_string(config.interval_s);
  out += ", \"max_queries\": " + std::to_string(config.max_queries);
  out += ", \"time_limit_s\": " + std::to_string(config.time_limit_s);
  out += ", \"model_v2v_cost\": ";
  out += config.model_v2v_cost ? "true" : "false";
  out += ", \"fault\": {";
  out += "\"loss_rate\": " + std::to_string(config.fault.loss_rate);
  out += ", \"burst_loss\": ";
  out += config.fault.burst_loss ? "true" : "false";
  out += ", \"loss_rate_bad\": " + std::to_string(config.fault.loss_rate_bad);
  out += ", \"reorder_rate\": " + std::to_string(config.fault.reorder_rate);
  out += ", \"duplicate_rate\": " +
         std::to_string(config.fault.duplicate_rate);
  out += ", \"truncate_rate\": " + std::to_string(config.fault.truncate_rate);
  out += ", \"bit_flip_rate\": " + std::to_string(config.fault.bit_flip_rate);
  out += "}, \"exchange\": {";
  out += "\"max_rounds\": " + std::to_string(config.exchange.max_rounds);
  out += ", \"deadline_s\": " + std::to_string(config.exchange.deadline_s);
  out += "}, \"health\": {";
  out += "\"window\": " + std::to_string(config.health.window);
  out += ", \"min_samples\": " + std::to_string(config.health.min_samples);
  out += ", \"min_availability\": " +
         std::to_string(config.health.min_availability);
  out += ", \"max_error_p95_m\": " +
         std::to_string(config.health.max_error_p95_m);
  out += ", \"max_latency_p99_us\": " +
         std::to_string(config.health.max_latency_p99_us);
  out += ", \"max_miss_streak\": " +
         std::to_string(config.health.max_miss_streak);
  out += "}}";
  return out;
}

}  // namespace

std::vector<double> CampaignResult::rups_errors() const {
  std::vector<double> out;
  for (const auto& q : queries) {
    if (const auto e = q.rups_error()) out.push_back(*e);
  }
  return out;
}

std::vector<double> CampaignResult::gps_errors() const {
  std::vector<double> out;
  for (const auto& q : queries) {
    if (const auto e = q.gps_error()) out.push_back(*e);
  }
  return out;
}

std::vector<double> CampaignResult::syn_errors() const {
  std::vector<double> out;
  for (const auto& q : queries) {
    if (!std::isnan(q.syn_error_m)) out.push_back(q.syn_error_m);
  }
  return out;
}

double CampaignResult::rups_availability() const {
  if (queries.empty()) return 0.0;
  std::size_t hits = 0;
  for (const auto& q : queries) {
    if (q.rups.has_value()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(queries.size());
}

CampaignResult run_campaign(ConvoySimulation& sim,
                            const CampaignConfig& config) {
  CampaignMetrics& metrics = campaign_metrics();
  CampaignResult result;

  // Health monitoring: the sim feeds ground-truth-checked results into the
  // monitor after every query; diagnostics bundles land in diagnostics_dir
  // (the recorder's previous dump dir is restored on exit).
  obs::HealthMonitor monitor(config.health);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const std::filesystem::path previous_dump_dir = recorder.dump_dir();
  if (!config.diagnostics_dir.empty()) {
    recorder.set_dump_dir(config.diagnostics_dir);
    recorder.set_config_text(config_json(config));
  }
  if (config.enable_health) sim.set_health_monitor(&monitor);

  // V2V path (Sec. V-B): the rear vehicle pulls the front vehicle's
  // context over a simulated DSRC link — whole journey context once, then
  // only the newly emitted tail metres before each query — through the
  // configured fault channel, and estimates from the decoded receiver-side
  // copy. Degraded/failed deliveries feed the health monitor.
  v2v::DsrcLink link(/*seed=*/0xB0B5'CAFEULL);
  v2v::FaultyChannel channel(config.fault_seed, config.fault);
  const core::RupsConfig& rups_cfg = sim.rig(0).engine().config();
  v2v::V2vRig rig(&link, &channel, config.exchange, rups_cfg.channels,
                  rups_cfg.context_capacity_m);

  sim.run_until(config.warmup_s);
  double t = config.warmup_s;

  // Windowed series: baseline snapshot after warm-up, one observation per
  // query interval, staleness tracked against the front vehicle (id 0).
  obs::TimeSeriesCollector collector(config.series);
  double last_accept_s = t;
  if (config.series.enabled) {
    collector.track(0);
    collector.begin(t);
  }

  while (result.queries.size() < config.max_queries && !sim.finished() &&
         (config.time_limit_s <= 0.0 || t < config.time_limit_s)) {
    t += config.interval_s;
    sim.run_until(t);
    if (sim.finished()) break;
    if (config.model_v2v_cost) {
      const core::ContextTrajectory& front = sim.rig(0).engine().context();
      if (!front.empty()) {
        const v2v::ExchangeResult exchanged = rig.pull(front);
        if (config.enable_health) {
          monitor.on_exchange(
              exchanged.usable(),
              exchanged.outcome == v2v::ExchangeOutcome::kDegraded);
        }
      }
    }
    const obs::AllocTotals allocs_before = obs::thread_alloc_totals();
    obs::ObsTimer timer(&metrics.latency_us, "campaign.query");
    result.queries.push_back(config.model_v2v_cost
                                 ? sim.query(1, 0, rig.receiver.received)
                                 : sim.query(1, 0));
    timer.stop();
    if (obs::alloc_accounting_available()) {
      metrics.query_allocs.record(static_cast<double>(
          (obs::thread_alloc_totals() - allocs_before).count));
    }
    metrics.queries.inc();
    const bool hit = result.queries.back().rups.has_value();
    (hit ? metrics.rups_hits : metrics.rups_misses).inc();
    metrics.outcomes.with(hit ? "hit" : "miss").inc();
    if (hit) {
      last_accept_s = t;
      collector.note_estimate(0, t);
    }
    metrics.staleness.with(std::uint64_t{0}).set(t - last_accept_s);
    collector.observe(t);
  }
  if (config.series.enabled) result.series = collector.finish(t);

  metrics.availability.set(result.rups_availability());
  RUPS_LOG(kDebug) << "campaign finished: " << result.queries.size()
                   << " queries, availability " << result.rups_availability()
                   << ", v2v bytes " << rig.session.total_bytes();
  if (config.enable_health) sim.set_health_monitor(nullptr);
  if (!config.diagnostics_dir.empty()) {
    recorder.set_dump_dir(previous_dump_dir);
  }
  result.health = monitor.report();
  result.metrics = obs::Registry::global().snapshot();
  return result;
}

}  // namespace rups::sim
