#pragma once

#include <filesystem>
#include <vector>

#include "obs/health.hpp"
#include "obs/snapshot.hpp"
#include "obs/timeseries.hpp"
#include "sim/convoy_sim.hpp"
#include "v2v/exchange.hpp"

namespace rups::sim {

/// A query campaign mirrors the paper's evaluation recipe: drive the
/// convoy, then "randomly select N points on the trajectory of the first
/// car and estimate the relative distance" (Secs. VI-B/C/D) — here, queries
/// are issued at a fixed interval after a warm-up that covers sensor
/// calibration and context build-up.
struct CampaignConfig {
  double warmup_s = 350.0;
  double interval_s = 3.0;
  std::size_t max_queries = 500;
  /// Hard stop (s); 0 = run until a vehicle finishes the route.
  double time_limit_s = 0.0;
  /// Run every query through a simulated DSRC exchange (Sec. V-B): the
  /// front vehicle's context is transferred in full before the first
  /// query, then as incremental tail updates, and the rear vehicle
  /// estimates from the DECODED receiver-side copy — codec quantization
  /// and any channel damage genuinely reach SynSeeker. When false, queries
  /// search the sender's pristine in-memory context (the idealized bound).
  bool model_v2v_cost = true;
  /// Packet-fault profile applied to every exchange (clean by default;
  /// see FaultConfig::urban()/tunnel()/congested()).
  v2v::FaultConfig fault{};
  /// Retry/deadline policy of the exchange protocol.
  v2v::ExchangeConfig exchange{};
  /// Seed of the fault channel (the link keeps its own fixed seed so
  /// clean-channel timing stays comparable across configurations).
  std::uint64_t fault_seed = 0xC4A77E1ULL;
  /// Health/SLO rules evaluated after every query (Sec. VI availability and
  /// error axes); alerts fire flight-recorder anomalies.
  obs::HealthConfig health{};
  bool enable_health = true;
  /// When non-empty, the flight recorder dumps a JSON diagnostics bundle
  /// here on each anomaly (restored to its previous setting afterwards).
  std::filesystem::path diagnostics_dir{};
  /// Sim-time windowed telemetry series collected over the campaign
  /// (window cadence, metric prefixes). Set series.enabled = false to skip
  /// collection; the collector is a no-op under RUPS_OBS_DISABLED either
  /// way.
  obs::TimeSeriesConfig series{};
};

struct CampaignResult {
  std::vector<ConvoySimulation::QueryResult> queries;

  /// Snapshot of the global obs::Registry taken when the campaign
  /// finished: per-query latency histogram (campaign.query_latency_us),
  /// SYN-search work (syn.*), V2V bytes (v2v.*), field evaluations
  /// (gsm.*). Counters are process-cumulative; diff two snapshots to
  /// isolate one campaign. Empty under RUPS_OBS_DISABLED builds.
  obs::MetricsSnapshot metrics;

  /// Health summary at campaign end: rolling availability / error p95 /
  /// latency p99 and every alert that fired. Identical in all build
  /// configurations (the monitor runs on explicit ground-truth feeds).
  obs::HealthReport health;

  /// Sim-time windowed series (counter rates, histogram quantiles, gauge
  /// values, per-neighbour estimate staleness) collected while the
  /// campaign ran. Empty when config.series.enabled is false or under
  /// RUPS_OBS_DISABLED.
  obs::TimeSeriesData series;

  /// Absolute RUPS errors over queries that produced an estimate.
  [[nodiscard]] std::vector<double> rups_errors() const;
  /// Absolute GPS errors over queries with a GPS estimate.
  [[nodiscard]] std::vector<double> gps_errors() const;
  /// SYN position errors over queries that found SYN points.
  [[nodiscard]] std::vector<double> syn_errors() const;
  /// Fraction of queries that produced a RUPS estimate.
  [[nodiscard]] double rups_availability() const;
};

/// Run the campaign: rear vehicle (index 1) queries the front (index 0).
[[nodiscard]] CampaignResult run_campaign(ConvoySimulation& sim,
                                          const CampaignConfig& config);

}  // namespace rups::sim
