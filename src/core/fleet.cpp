#include "core/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/alloc.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace rups::core {

namespace {

struct FleetMetrics {
  obs::Counter& batches = obs::Registry::global().counter("fleet.batches");
  obs::Counter& queries = obs::Registry::global().counter("fleet.queries");
  obs::Counter& pooled_batches =
      obs::Registry::global().counter("fleet.pooled_batches");
  obs::Gauge& neighbours = obs::Registry::global().gauge("fleet.neighbours");
  obs::Gauge& hit_rate =
      obs::Registry::global().gauge("fleet.cache_hit_rate");
  obs::Histogram& batch_us =
      obs::Registry::global().histogram("fleet.batch_us");
  obs::Histogram& task_us =
      obs::Registry::global().histogram("fleet.task_us");
  /// Per-neighbour task latency and hit/miss split: the per-entity axes
  /// the streaming/service-scale gates are measured on.
  obs::HistogramFamily& task_by_neighbour =
      obs::Registry::global().histogram_family("fleet.task_us", "neighbour");
  obs::CounterFamily& outcomes =
      obs::Registry::global().counter_family("fleet.query_outcome", "outcome");
  /// operator new calls per fleet task on the worker thread — the per-task
  /// axis of the ROADMAP zero-alloc steady-state target (steady_alloc_gate
  /// ratchets the campaign-level census; this histogram localises creep).
  obs::Histogram& task_allocs =
      obs::Registry::global().histogram("fleet.task_allocs");
};

FleetMetrics& fleet_metrics() {
  static FleetMetrics m;
  return m;
}

}  // namespace

FleetEngine::FleetEngine(FleetConfig config) : config_(config) {
  // SynCache shards (and their seekers) are built lazily inside a batch,
  // after its counters have moved: reject the config up front instead.
  validate(config_.rups.syn);
  config_.cache.enabled = config_.use_cache;
  // Every pack this engine syncs (its ego pack and each shard's neighbour
  // pack) must re-pack the binder's back-fill reach.
  config_.cache.volatile_suffix_m =
      std::max(config_.cache.volatile_suffix_m,
               pack_volatile_suffix_m(config_.rups.binder));
}

void FleetEngine::forget(std::uint64_t id) { shards_.erase(id); }

void FleetEngine::clear() {
  shards_.clear();
  ego_pack_.clear();
  ego_ranks_ = {};
}

SynCache::Stats FleetEngine::cache_stats() const noexcept {
  SynCache::Stats total;
  for (const auto& [id, shard] : shards_) {
    const SynCache::Stats& s = shard->stats();
    total.queries += s.queries;
    total.tracking_hits += s.tracking_hits;
    total.tracking_misses += s.tracking_misses;
    total.full_searches += s.full_searches;
    total.invalidations += s.invalidations;
  }
  return total;
}

std::vector<FleetEngine::NeighbourResult> FleetEngine::estimate_batch(
    const ContextTrajectory& ego,
    std::span<const ContextTrajectory* const> neighbours,
    std::span<const std::uint64_t> ids, util::ThreadPool* pool) {
  std::vector<NeighbourResult> results;
  estimate_batch_into(ego, neighbours, ids, pool, results);
  return results;
}

void FleetEngine::estimate_batch_into(
    const ContextTrajectory& ego,
    std::span<const ContextTrajectory* const> neighbours,
    std::span<const std::uint64_t> ids, util::ThreadPool* pool,
    std::vector<NeighbourResult>& results, const PackedContext* ego_pack,
    std::span<const PackedContext* const> neighbour_packs,
    const WindowRanks* ego_ranks,
    std::span<const WindowRanks* const> neighbour_ranks) {
  if (neighbours.size() != ids.size() ||
      (!neighbour_packs.empty() &&
       neighbour_packs.size() != neighbours.size()) ||
      (!neighbour_ranks.empty() &&
       neighbour_ranks.size() != neighbours.size())) {
    throw std::invalid_argument(
        "FleetEngine: neighbours/ids/packs size mismatch");
  }
  // Duplicate ids would race two workers on one shard — reject them before
  // the batch touches any state.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      if (ids[i] == ids[j]) {
        throw std::invalid_argument("FleetEngine: duplicate neighbour id");
      }
    }
  }
  FleetMetrics& m = fleet_metrics();
  m.batches.inc();
  m.queries.inc(neighbours.size());
  m.neighbours.set(static_cast<double>(neighbours.size()));
  obs::ObsTimer timer(&m.batch_us, "fleet.batch");

  // The ego pack and ranking (the caller's when given, else ours) are
  // prepared once, single-threaded, then read-only for the whole batch;
  // per-id shards are materialized up front because the map must not be
  // mutated from worker threads.
  if (ego_pack == nullptr || !ego_pack->in_sync_with(ego)) {
    ego_pack_.sync(ego, config_.cache.volatile_suffix_m);
    ego_pack = &ego_pack_;
  }
  if (ego_ranks == nullptr) {
    rank_recent_windows(ego, config_.rups.syn, ego_ranks_, rank_scratch_,
                        ego_pack);
    ego_ranks = &ego_ranks_;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto [it, inserted] = shards_.try_emplace(ids[i]);
    if (inserted) {
      it->second =
          std::make_unique<SynCache>(config_.rups.syn, config_.cache);
    }
  }

  // Captured on the dispatching thread: per-neighbour task spans parent to
  // the batch span even when they run on pool workers, and the hop is
  // emitted as a trace flow arrow.
  const obs::SpanContext batch_span = obs::current_span();

  results.resize(neighbours.size());
  const bool count_allocs = obs::alloc_accounting_available();
  const auto query_one = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    const obs::AllocTotals allocs_before = obs::thread_alloc_totals();
    obs::ObsTimer task_timer(&m.task_us, "fleet.task", batch_span);
    SynCache& shard = *shards_.find(ids[i])->second;
    NeighbourResult& r = results[i];
    shard.find_into(ego, *neighbours[i], ego_pack, r.syn_points,
                    neighbour_packs.empty() ? nullptr : neighbour_packs[i],
                    ego_ranks,
                    neighbour_ranks.empty() ? nullptr : neighbour_ranks[i]);
    r.estimate = aggregate_estimates(ego, *neighbours[i], r.syn_points,
                                     config_.rups.aggregation);
    task_timer.stop();
    if (count_allocs) {
      m.task_allocs.record(static_cast<double>(
          (obs::thread_alloc_totals() - allocs_before).count));
    }
    r.latency_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (config_.per_neighbour_latency) {
      m.task_by_neighbour.with(ids[i]).record(r.latency_us);
    }
    m.outcomes.with(r.estimate.has_value() ? "hit" : "miss").inc();
  };

  if (pool != nullptr && neighbours.size() > 1) {
    m.pooled_batches.inc();
    pool->parallel_for(0, neighbours.size(), query_one);
  } else {
    for (std::size_t i = 0; i < neighbours.size(); ++i) query_one(i);
  }

  const SynCache::Stats stats = cache_stats();
  const std::uint64_t resolved =
      stats.tracking_hits + stats.tracking_misses + stats.full_searches;
  if (resolved > 0) {
    m.hit_rate.set(static_cast<double>(stats.tracking_hits) /
                   static_cast<double>(resolved));
  }
}

}  // namespace rups::core
