#pragma once

// Fleet campaign: one ego vehicle answering relative-distance queries
// against EVERY other convoy vehicle each beacon round, through a
// core::FleetEngine (shared ego pack + per-neighbour SYN caches). This is
// the N-vehicle generalization of the paper's two-car evaluation — the
// pairwise accuracy numbers must survive unchanged, the per-query compute
// must not (that is the point of the caching layer).

#include <cstdint>
#include <vector>

#include <memory>

#include "core/fleet.hpp"
#include "obs/health.hpp"
#include "obs/snapshot.hpp"
#include "sim/campaign.hpp"
#include "sim/convoy_sim.hpp"
#include "util/thread_pool.hpp"
#include "v2v/channel.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"

namespace rups::sim {

/// CampaignConfig extension for the fleet shape. `base` keeps the familiar
/// cadence knobs (warm-up, interval, query budget, health rules).
struct FleetCampaignConfig {
  CampaignConfig base{};
  /// Which vehicle runs the FleetEngine; default (npos) = the last one
  /// (the rear car, matching the two-car layout where index 1 queries 0).
  std::size_t ego_index = static_cast<std::size_t>(-1);
  /// Tracking cache on/off (off = every query is a full search; the batch
  /// layer still reuses the packed ego context).
  bool use_cache = true;
  core::SynCacheConfig cache{};
};

/// One ego-vs-neighbour outcome within a round, with ground truth attached.
struct FleetQueryOutcome {
  std::size_t neighbour_index = 0;
  core::FleetEngine::NeighbourResult result;
  /// Signed ground truth (positive = ego in front of this neighbour).
  double truth_m = 0.0;

  [[nodiscard]] std::optional<double> rups_error() const {
    if (!result.estimate.has_value()) return std::nullopt;
    return std::abs(result.estimate->distance_m - truth_m);
  }
};

/// One beacon round: every neighbour queried once from the same ego context.
struct FleetRound {
  double time_s = 0.0;
  std::vector<FleetQueryOutcome> outcomes;
};

struct FleetCampaignResult {
  std::vector<FleetRound> rounds;
  /// Tracking-cache effectiveness aggregated over the whole campaign.
  core::SynCache::Stats cache;
  /// V2V bytes moved per neighbour session (full context + tail updates).
  std::size_t v2v_bytes = 0;
  obs::MetricsSnapshot metrics;
  obs::HealthReport health;
  /// Sim-time windowed series with one estimate.staleness_s column per
  /// neighbour (config.base.series; empty when disabled).
  obs::TimeSeriesData series;

  /// Absolute errors over every outcome that produced an estimate.
  [[nodiscard]] std::vector<double> rups_errors() const;
  /// Fraction of outcomes with an estimate.
  [[nodiscard]] double availability() const;
  /// Mean per-neighbour serial query latency (us).
  [[nodiscard]] double mean_latency_us() const;
};

/// A convoy plus the ego's fleet front end and one V2V session per
/// neighbour (full context once, then incremental tails — Sec. V-B's
/// exchange model applied per neighbour).
class FleetSimulation {
 public:
  FleetSimulation(Scenario scenario, FleetCampaignConfig config = {});

  /// Advance the convoy to absolute time `time_s`.
  void run_until(double time_s) { sim_.run_until(time_s); }

  /// Exchange context updates and query every neighbour once.
  [[nodiscard]] FleetRound query_round(util::ThreadPool* pool = nullptr);

  [[nodiscard]] ConvoySimulation& sim() noexcept { return sim_; }
  [[nodiscard]] const ConvoySimulation& sim() const noexcept { return sim_; }
  [[nodiscard]] std::size_t ego_index() const noexcept { return ego_; }
  [[nodiscard]] core::FleetEngine& engine() noexcept { return engine_; }
  [[nodiscard]] std::size_t v2v_bytes() const noexcept;

  void set_health_monitor(obs::HealthMonitor* monitor) noexcept {
    health_ = monitor;
  }

 private:
  ConvoySimulation sim_;
  FleetCampaignConfig config_;
  std::size_t ego_;
  core::FleetEngine engine_;
  v2v::DsrcLink link_;
  /// One fault channel + V2V rig per neighbour (parallel to
  /// neighbour_indices_). Channels are heap-held: rigs borrow them.
  std::vector<std::unique_ptr<v2v::FaultyChannel>> channels_;
  std::vector<v2v::V2vRig> rigs_;
  std::vector<std::size_t> neighbour_indices_;
  obs::HealthMonitor* health_ = nullptr;
};

/// Run the fleet campaign: warm up, then rounds at base.interval_s until
/// the query budget (counted in ROUNDS), the route end, or the time limit.
[[nodiscard]] FleetCampaignResult run_fleet_campaign(
    FleetSimulation& fleet, const FleetCampaignConfig& config,
    util::ThreadPool* pool = nullptr);

}  // namespace rups::sim
