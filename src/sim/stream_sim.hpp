#pragma once

// Streaming workload driver (DESIGN §17): a CityFleet drive replayed as a
// LIVE per-metre feed instead of the round protocol. One ego vehicle
// streams against its K nearest neighbours; every simulated metre appends
// one context sample per vehicle and runs one StreamingEngine update —
// beacon-diff exchanges under a named fault profile, SynCache ±12 m
// re-verification, continuous estimates.
//
// The same config also runs as the ROUND baseline (run_batch_campaign):
// the identical CityFleet drive (one shared per-metre loop), but context
// moves once per round through one v2v::V2vRig per neighbour (full context
// once, then tails) and each neighbour is estimated once per round — the
// cost/staleness reference bench_stream compares against.

#include <cstdint>
#include <vector>

#include "obs/timeseries.hpp"
#include "sim/service_sim.hpp"
#include "stream/stream_engine.hpp"
#include "v2v/channel.hpp"
#include "v2v/exchange.hpp"
#include "v2v/link.hpp"

namespace rups::sim {

struct StreamCampaignConfig {
  CityFleetConfig city{};
  /// Engine policy (trajectory geometry is overridden from `city`).
  stream::StreamConfig stream{};
  std::size_t rounds = 24;
  /// Rounds excluded from error/staleness accounting (exchange and
  /// estimation run from round 0 in both modes).
  std::size_t warmup_rounds = 4;
  /// The ego is vehicle 0; it streams against vehicles 1..neighbours.
  std::size_t neighbours = 4;
  /// Ideal ingest mode: estimates run against the senders' pristine
  /// contexts (no codec, no channel) — the determinism/accuracy reference.
  bool ideal = false;
  /// Packet-fault profile of every neighbour channel (beacon mode and the
  /// batch baseline share it).
  v2v::FaultConfig fault{};
  std::uint64_t link_seed = 0xB0B5'CAFEULL;
  std::uint64_t fault_seed = 0xC4A77E1ULL;
  /// Sim-time windowed telemetry (estimate.staleness_s per neighbour).
  obs::TimeSeriesConfig series{};
};

struct StreamCampaignResult {
  std::uint64_t updates = 0;    ///< engine updates (streaming) / rounds (batch)
  std::uint64_t estimates = 0;  ///< estimates produced over the campaign
  /// Wire bytes moved over the WHOLE campaign (beacon diffs + heartbeats,
  /// or full+tail exchanges in batch mode) — both modes pay their initial
  /// sync, so bytes_per_estimate is comparable.
  std::size_t bytes = 0;
  /// bytes / estimates (0 when nothing was estimated).
  double bytes_per_estimate = 0.0;
  /// |distance_m - truth| per post-warmup estimate.
  std::vector<double> errors;
  /// Sim-seconds since the neighbour's last estimate, sampled for every
  /// neighbour at every per-metre step post-warmup (both modes sample at
  /// the same cadence, so staleness quantiles are comparable).
  std::vector<double> staleness_s;
  /// Beacon protocol accounting summed across neighbours (streaming mode;
  /// zero-valued in batch mode).
  stream::BeaconStats beacons;
  obs::TimeSeriesData series;

  [[nodiscard]] double mean_error() const;
  [[nodiscard]] double staleness_quantile(double q) const;
};

/// Per-metre streaming drive through a stream::StreamingEngine.
[[nodiscard]] StreamCampaignResult run_stream_campaign(
    const StreamCampaignConfig& config, util::ThreadPool* pool = nullptr);

/// Round-based full+tail baseline over the identical CityFleet drive.
[[nodiscard]] StreamCampaignResult run_batch_campaign(
    const StreamCampaignConfig& config, util::ThreadPool* pool = nullptr);

}  // namespace rups::sim
