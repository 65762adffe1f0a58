#include "sim/fleet_sim.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "obs/alloc.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::sim {

namespace {

/// Fleet-campaign cadence accounting, one level above core's fleet.*
/// batch counters: rounds, per-round latency, and the availability the ego
/// actually observes across its whole neighbourhood.
struct FleetCampaignMetrics {
  obs::Counter& rounds =
      obs::Registry::global().counter("fleetcampaign.rounds");
  obs::Counter& outcomes =
      obs::Registry::global().counter("fleetcampaign.outcomes");
  obs::Counter& hits = obs::Registry::global().counter("fleetcampaign.hits");
  obs::Counter& misses =
      obs::Registry::global().counter("fleetcampaign.misses");
  obs::Gauge& availability =
      obs::Registry::global().gauge("fleetcampaign.last_availability");
  obs::Histogram& round_us =
      obs::Registry::global().histogram("fleetcampaign.round_us");
  /// Labeled hit/miss split per round, and per-neighbour sim-time since
  /// the last accepted estimate — the staleness axis the windowed series
  /// and telemetry_report break down per neighbour.
  obs::CounterFamily& query_outcomes = obs::Registry::global().counter_family(
      "fleetcampaign.query_outcome", "outcome");
  obs::GaugeFamily& staleness = obs::Registry::global().gauge_family(
      "estimate.staleness_s", "neighbour");
};

FleetCampaignMetrics& fleet_campaign_metrics() {
  static FleetCampaignMetrics m;
  return m;
}

}  // namespace

std::vector<double> FleetCampaignResult::rups_errors() const {
  std::vector<double> out;
  for (const auto& round : rounds) {
    for (const auto& o : round.outcomes) {
      if (const auto e = o.rups_error()) out.push_back(*e);
    }
  }
  return out;
}

double FleetCampaignResult::availability() const {
  std::size_t total = 0;
  std::size_t hits = 0;
  for (const auto& round : rounds) {
    for (const auto& o : round.outcomes) {
      ++total;
      if (o.result.estimate.has_value()) ++hits;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

double FleetCampaignResult::mean_latency_us() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& round : rounds) {
    for (const auto& o : round.outcomes) {
      total += o.result.latency_us;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

FleetSimulation::FleetSimulation(Scenario scenario, FleetCampaignConfig config)
    : sim_(std::move(scenario)),
      config_(config),
      ego_(config.ego_index < sim_.vehicle_count() ? config.ego_index
                                                   : sim_.vehicle_count() - 1),
      engine_(core::FleetConfig{sim_.scenario().rups, config.cache,
                                config.use_cache}),
      link_(/*seed=*/0xF1EE'7CA5ULL) {
  const core::RupsConfig& rups_cfg = sim_.scenario().rups;
  for (std::size_t i = 0; i < sim_.vehicle_count(); ++i) {
    if (i == ego_) continue;
    neighbour_indices_.push_back(i);
    channels_.push_back(std::make_unique<v2v::FaultyChannel>(
        util::hash_combine(config_.base.fault_seed, i), config_.base.fault));
    rigs_.emplace_back(&link_, channels_.back().get(), config_.base.exchange,
                       rups_cfg.channels, rups_cfg.context_capacity_m);
  }
}

std::size_t FleetSimulation::v2v_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& rig : rigs_) total += rig.session.total_bytes();
  return total;
}

FleetRound FleetSimulation::query_round(util::ThreadPool* pool) {
  FleetCampaignMetrics& metrics = fleet_campaign_metrics();
  FleetRound round;
  round.time_s = sim_.now();
  obs::ObsTimer timer(&metrics.round_us, "fleetcampaign.round");

  // V2V: pull each neighbour's context — whole journey once, then only the
  // tail metres emitted since the last round (Sec. V-B, per neighbour).
  std::vector<const core::ContextTrajectory*> contexts;
  std::vector<std::uint64_t> ids;
  std::vector<std::size_t> queried;
  for (std::size_t s = 0; s < neighbour_indices_.size(); ++s) {
    const std::size_t i = neighbour_indices_[s];
    const core::ContextTrajectory& ctx = sim_.rig(i).engine().context();
    if (ctx.empty()) continue;
    if (config_.base.model_v2v_cost) {
      // The ego estimates from what actually crossed the channel: the
      // decoded receiver-side copy, not the neighbour's in-memory context.
      v2v::V2vRig& rig = rigs_[s];
      const v2v::ExchangeResult exchanged = rig.pull(ctx);
      if (health_ != nullptr) {
        health_->on_exchange(
            exchanged.usable(),
            exchanged.outcome == v2v::ExchangeOutcome::kDegraded);
      }
      if (rig.receiver.received.empty()) continue;  // nothing decodable yet
      contexts.push_back(&rig.receiver.received);
    } else {
      contexts.push_back(&ctx);
    }
    ids.push_back(static_cast<std::uint64_t>(i));
    queried.push_back(i);
  }
  if (contexts.empty()) return round;

  const core::ContextTrajectory& ego_ctx = sim_.rig(ego_).engine().context();
  auto results = engine_.estimate_batch(ego_ctx, contexts, ids, pool);

  metrics.rounds.inc();
  const double ego_pos = sim_.rig(ego_).state().position_m;
  for (std::size_t k = 0; k < results.size(); ++k) {
    FleetQueryOutcome outcome;
    outcome.neighbour_index = queried[k];
    outcome.result = std::move(results[k]);
    outcome.truth_m = ego_pos - sim_.rig(queried[k]).state().position_m;
    metrics.outcomes.inc();
    const bool hit = outcome.result.estimate.has_value();
    (hit ? metrics.hits : metrics.misses).inc();
    if (hit) {
      obs::FlightRecorder::global().record(
          obs::EventType::kEstimateChecked, "fleet.query",
          outcome.result.estimate->distance_m, outcome.truth_m,
          std::abs(outcome.result.estimate->distance_m - outcome.truth_m));
    } else {
      obs::FlightRecorder::global().record(obs::EventType::kEstimateMissing,
                                           "fleet.query", outcome.truth_m);
    }
    if (health_ != nullptr) {
      health_->on_query(hit, outcome.rups_error(), outcome.result.latency_us);
    }
    round.outcomes.push_back(std::move(outcome));
  }
  timer.stop();
  return round;
}

FleetCampaignResult run_fleet_campaign(FleetSimulation& fleet,
                                       const FleetCampaignConfig& config,
                                       util::ThreadPool* pool) {
  FleetCampaignResult result;
  obs::HealthMonitor monitor(config.base.health);
  if (config.base.enable_health) fleet.set_health_monitor(&monitor);

  fleet.run_until(config.base.warmup_s);
  double t = config.base.warmup_s;

  // Windowed series: every neighbour is tracked for staleness from the end
  // of warm-up; one observation per round keeps the windows on the beacon
  // cadence (sim time, so serial and pooled runs produce identical series
  // for everything except wall-clock quantile columns).
  FleetCampaignMetrics& metrics = fleet_campaign_metrics();
  obs::TimeSeriesCollector collector(config.base.series);
  std::map<std::size_t, double> last_accept_s;
  for (std::size_t i = 0; i < fleet.sim().vehicle_count(); ++i) {
    if (i == fleet.ego_index()) continue;
    last_accept_s[i] = t;
    collector.track(static_cast<std::uint64_t>(i));
  }
  if (config.base.series.enabled) collector.begin(t);

  while (result.rounds.size() < config.base.max_queries &&
         !fleet.sim().finished() &&
         (config.base.time_limit_s <= 0.0 || t < config.base.time_limit_s)) {
    t += config.base.interval_s;
    fleet.run_until(t);
    if (fleet.sim().finished()) break;
    result.rounds.push_back(fleet.query_round(pool));
    for (const FleetQueryOutcome& o : result.rounds.back().outcomes) {
      const bool hit = o.result.estimate.has_value();
      metrics.query_outcomes.with(hit ? "hit" : "miss").inc();
      if (hit) {
        last_accept_s[o.neighbour_index] = t;
        collector.note_estimate(static_cast<std::uint64_t>(o.neighbour_index),
                                t);
      }
    }
    for (const auto& [i, last] : last_accept_s) {
      metrics.staleness.with(static_cast<std::uint64_t>(i)).set(t - last);
    }
    collector.observe(t);
  }
  if (config.base.series.enabled) result.series = collector.finish(t);

  metrics.availability.set(result.availability());
  if (config.base.enable_health) fleet.set_health_monitor(nullptr);
  result.cache = fleet.engine().cache_stats();
  result.v2v_bytes = fleet.v2v_bytes();
  result.health = monitor.report();
  // Mirror the span-stage allocation census (when one is being collected)
  // into alloc.count{stage}/alloc.bytes{stage} before the snapshot.
  if (obs::alloc_census_enabled()) obs::publish_alloc_census();
  result.metrics = obs::Registry::global().snapshot();
  const auto& c = result.cache;
  const std::size_t resolved =
      c.tracking_hits + c.tracking_misses + c.full_searches;
  RUPS_LOG(kDebug) << "fleet campaign finished: " << result.rounds.size()
                   << " rounds, availability " << result.availability()
                   << ", cache hit rate "
                   << (resolved != 0 ? static_cast<double>(c.tracking_hits) /
                                           static_cast<double>(resolved)
                                     : 0.0)
                   << ", v2v bytes " << result.v2v_bytes;
  return result;
}

}  // namespace rups::sim
