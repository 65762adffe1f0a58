#include "sim/stream_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "core/fleet.hpp"
#include "util/function_ref.hpp"
#include "util/stats.hpp"
#include "v2v/receiver.hpp"

namespace rups::sim {
namespace {

/// Force the engine geometry onto the city workload's.
[[nodiscard]] StreamCampaignConfig normalized(StreamCampaignConfig cfg) {
  cfg.stream.fleet.rups.channels = cfg.city.channels;
  cfg.stream.fleet.rups.context_capacity_m = cfg.city.context_capacity_m;
  cfg.neighbours = std::max<std::size_t>(1, cfg.neighbours);
  return cfg;
}

/// One mode's per-metre hook, given the ego context, the senders' live
/// contexts and whether this metre ends the round: the update it ran
/// (results[j] belongs to ids[j]), or nullptr when it did not update.
using Step = util::FunctionRef<const stream::StreamingEngine::Update*(
    const core::ContextTrajectory& ego,
    std::span<const core::ContextTrajectory* const> senders, bool round_end)>;

/// The CityFleet drive both modes share: every round's samples land one
/// metre at a time in the live contexts (0 = ego, 1..k = senders), `step`
/// runs after each metre, and estimates, errors and per-metre staleness
/// are accounted identically whichever mode produced them.
void drive(const StreamCampaignConfig& cfg, CityFleet& city, std::size_t k,
           Step step, StreamCampaignResult& result) {
  std::vector<core::ContextTrajectory> trajs;
  trajs.reserve(k + 1);
  for (std::size_t i = 0; i <= k; ++i) {
    trajs.emplace_back(cfg.city.channels, cfg.city.context_capacity_m);
  }
  std::vector<const core::ContextTrajectory*> senders;
  for (std::size_t i = 1; i <= k; ++i) senders.push_back(&trajs[i]);
  std::vector<double> last_pos(k + 1, 0.0);

  obs::TimeSeriesCollector collector(cfg.series);
  collector.begin(0.0);
  for (std::size_t i = 1; i <= k; ++i) collector.track(city.vehicle_id(i));

  std::vector<double> last_estimate_s(k + 1, 0.0);
  bool accounting = false;
  double t = 0.0;

  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    city.advance_round();
    if (!accounting && r >= cfg.warmup_rounds) {
      // Staleness clocks start when accounting does.
      for (std::size_t i = 1; i <= k; ++i) last_estimate_s[i] = t;
      accounting = true;
    }
    std::size_t max_steps = 0;
    for (std::size_t i = 0; i <= k; ++i) {
      max_steps = std::max(max_steps, city.samples(i).size());
    }
    for (std::size_t s = 0; s < max_steps; ++s) {
      for (std::size_t i = 0; i <= k; ++i) {
        const auto& batch = city.samples(i);
        if (s < batch.size()) {
          trajs[i].append(batch[s].geo, batch[s].power);
          last_pos[i] = batch[s].position_m;
        }
      }
      t = (static_cast<double>(r) +
           static_cast<double>(s + 1) / static_cast<double>(max_steps)) *
          cfg.city.interval_s;
      collector.observe(t);

      if (const auto* update = step(trajs[0], senders, s + 1 == max_steps)) {
        ++result.updates;
        for (std::size_t j = 0; j < update->ids.size(); ++j) {
          const auto& nr = update->results[j];
          if (!nr.estimate.has_value()) continue;
          ++result.estimates;
          const std::size_t i = update->ids[j] - city.vehicle_id(0);
          collector.note_estimate(update->ids[j], t);
          last_estimate_s[i] = t;
          if (accounting) {
            result.errors.push_back(std::abs(nr.estimate->distance_m -
                                             (last_pos[0] - last_pos[i])));
          }
        }
      }
      if (accounting) {
        for (std::size_t i = 1; i <= k; ++i) {
          result.staleness_s.push_back(t - last_estimate_s[i]);
        }
      }
    }
  }
  result.series = collector.finish(t);
}

void set_bytes(StreamCampaignResult& result, std::size_t bytes) {
  result.bytes = bytes;
  result.bytes_per_estimate =
      result.estimates > 0 ? static_cast<double>(bytes) /
                                 static_cast<double>(result.estimates)
                           : 0.0;
}

}  // namespace

double StreamCampaignResult::mean_error() const { return util::mean(errors); }

double StreamCampaignResult::staleness_quantile(double q) const {
  return util::percentile(staleness_s, q);
}

StreamCampaignResult run_stream_campaign(const StreamCampaignConfig& config,
                                         util::ThreadPool* pool) {
  const StreamCampaignConfig cfg = normalized(config);
  CityFleet city(cfg.city);
  const std::size_t k = std::min(cfg.neighbours, city.vehicle_count() - 1);

  stream::StreamingEngine engine(cfg.stream);
  v2v::DsrcLink link(cfg.link_seed);
  std::vector<std::unique_ptr<v2v::FaultyChannel>> channels;
  for (std::size_t i = 1; i <= k; ++i) {
    if (cfg.ideal) {
      engine.add_neighbour(city.vehicle_id(i));
    } else {
      channels.push_back(std::make_unique<v2v::FaultyChannel>(
          cfg.fault_seed + i, cfg.fault));
      engine.add_neighbour(city.vehicle_id(i), &link, channels.back().get());
    }
  }

  StreamCampaignResult result;
  drive(cfg, city, k,
        [&](const core::ContextTrajectory& ego,
            std::span<const core::ContextTrajectory* const> senders,
            bool) { return &engine.update(ego, senders, pool); },
        result);

  set_bytes(result, engine.total_beacon_bytes());
  for (std::size_t i = 1; i <= k; ++i) {
    if (const stream::BeaconStats* s =
            engine.beacon_stats(city.vehicle_id(i))) {
      result.beacons.beacons += s->beacons;
      result.beacons.diffs += s->diffs;
      result.beacons.no_news += s->no_news;
      result.beacons.rerequests += s->rerequests;
      result.beacons.resyncs += s->resyncs;
      result.beacons.metres_gained += s->metres_gained;
    }
  }
  return result;
}

StreamCampaignResult run_batch_campaign(const StreamCampaignConfig& config,
                                        util::ThreadPool* pool) {
  const StreamCampaignConfig cfg = normalized(config);
  CityFleet city(cfg.city);
  const std::size_t k = std::min(cfg.neighbours, city.vehicle_count() - 1);

  core::FleetEngine fleet(cfg.stream.fleet);
  v2v::DsrcLink link(cfg.link_seed);
  std::vector<std::unique_ptr<v2v::FaultyChannel>> channels;
  std::vector<v2v::V2vRig> rigs;
  if (!cfg.ideal) {
    for (std::size_t i = 1; i <= k; ++i) {
      channels.push_back(std::make_unique<v2v::FaultyChannel>(
          cfg.fault_seed + i, cfg.fault));
      rigs.emplace_back(&link, channels.back().get(),
                        cfg.stream.beacon.exchange, cfg.city.channels,
                        cfg.city.context_capacity_m);
    }
  }

  // Context lands per metre exactly like the streaming drive; only the
  // exchange + estimate happen once per round, at its last metre.
  stream::StreamingEngine::Update round;
  std::vector<const core::ContextTrajectory*> views;
  StreamCampaignResult result;
  drive(cfg, city, k,
        [&](const core::ContextTrajectory& ego,
            std::span<const core::ContextTrajectory* const> senders,
            bool round_end) -> const stream::StreamingEngine::Update* {
          if (!round_end) return nullptr;
          views.clear();
          round.ids.clear();
          for (std::size_t i = 1; i <= k; ++i) {
            const core::ContextTrajectory* view = senders[i - 1];
            if (!cfg.ideal) {
              v2v::V2vRig& rig = rigs[i - 1];
              (void)rig.pull(*view);
              if (rig.receiver.received.empty()) continue;
              view = &rig.receiver.received;
            }
            views.push_back(view);
            round.ids.push_back(city.vehicle_id(i));
          }
          if (!views.empty()) {
            fleet.estimate_batch_into(ego, views, round.ids, pool,
                                      round.results);
          }
          return &round;
        },
        result);

  std::size_t bytes = 0;
  for (const v2v::V2vRig& rig : rigs) bytes += rig.session.total_bytes();
  set_bytes(result, bytes);
  return result;
}

}  // namespace rups::sim
