#pragma once

// Fleet-scale batched estimation. In the paper's DSRC setting every vehicle
// hears periodic broadcasts from MANY neighbours, so the practical query
// shape is one ego context against N neighbour contexts per beacon round
// (cf. Niesen et al., "Inter-Vehicle Range Estimation from Periodic
// Broadcasts"). FleetEngine answers that batch:
//   * the ego trajectory is packed, and its recent windows ranked, ONCE per
//     batch, and both are shared read-only by every neighbour query;
//   * each neighbour id owns a SynCache shard (tracking lock + packed
//     neighbour context), so steady-state queries are narrow
//     re-verifications instead of full O(m·w·k) searches;
//   * independent neighbour queries are sharded across util::ThreadPool.
// Results are returned in input order and are bit-identical to running the
// serial per-neighbour estimate path (same kernel, same plan, per-neighbour
// work never crosses a shard boundary).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/resolver.hpp"
#include "core/syn_cache.hpp"
#include "util/thread_pool.hpp"

namespace rups::core {

struct FleetConfig {
  RupsConfig rups{};
  SynCacheConfig cache{};
  /// When false, every query runs the full SYN search (the per-neighbour
  /// shards then only provide pack reuse). Mirrors SynCacheConfig::enabled.
  bool use_cache = true;
  /// Record per-neighbour latency cells (fleet.task_us{neighbour=...}).
  /// The uint64-labeled family lookup formats the label per call, which
  /// heap-allocates; zero-alloc callers (the matcher service) turn this
  /// off and keep only the unlabeled task_us histogram.
  bool per_neighbour_latency = true;
};

/// One ego vehicle's batched distance-query front end. Not thread-safe as a
/// whole (one batch at a time); internally parallel across neighbours.
class FleetEngine {
 public:
  struct NeighbourResult {
    std::optional<RelativeDistanceEstimate> estimate;
    std::vector<SynPoint> syn_points;
    /// Serial compute time of this neighbour's query (microseconds).
    double latency_us = 0.0;
  };

  explicit FleetEngine(FleetConfig config = {});

  /// Answer one ego-vs-N batch. `neighbours[i]` is identified by `ids[i]`
  /// (ids must be unique within a batch — each id addresses one cache
  /// shard); results come back in input order. Passing a pool shards the
  /// independent per-neighbour queries across it; results are identical
  /// with or without one.
  [[nodiscard]] std::vector<NeighbourResult> estimate_batch(
      const ContextTrajectory& ego,
      std::span<const ContextTrajectory* const> neighbours,
      std::span<const std::uint64_t> ids,
      util::ThreadPool* pool = nullptr);

  /// Scratch-reusing form: resizes `results` to the batch and reuses each
  /// slot's syn_points capacity. With warm caches (and
  /// per_neighbour_latency off) a steady-state batch performs no dynamic
  /// allocation. Identical results to estimate_batch.
  ///
  /// Callers that prepare the trajectories themselves (MatcherService packs
  /// and ranks each vehicle once per drain) pass that in: an `ego_pack` in
  /// sync with `ego` wins over the engine's own copy, and so does a
  /// `neighbour_packs[i]` (empty, or one entry per neighbour, null allowed)
  /// in sync with `*neighbours[i]`. Likewise `ego_ranks` replaces the
  /// engine's own once-per-batch ego ranking and `neighbour_ranks` (same
  /// shape as neighbour_packs) supplies each neighbour's; a ranking is
  /// used only for a window it holds of the trajectory's current state.
  /// Results are identical either way.
  void estimate_batch_into(
      const ContextTrajectory& ego,
      std::span<const ContextTrajectory* const> neighbours,
      std::span<const std::uint64_t> ids, util::ThreadPool* pool,
      std::vector<NeighbourResult>& results,
      const PackedContext* ego_pack = nullptr,
      std::span<const PackedContext* const> neighbour_packs = {},
      const WindowRanks* ego_ranks = nullptr,
      std::span<const WindowRanks* const> neighbour_ranks = {});

  /// Drop the cache shard of one neighbour (e.g. it left radio range).
  void forget(std::uint64_t id);
  void clear();

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Aggregated tracking stats across all shards.
  [[nodiscard]] SynCache::Stats cache_stats() const noexcept;
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

 private:
  FleetConfig config_;
  /// Own ego pack, synced only when the caller passes none in sync.
  PackedContext ego_pack_;
  /// Own ranking of the ego's recent windows, refreshed once per batch
  /// (before any shard runs) when the caller passes none.
  WindowRanks ego_ranks_;
  ChannelSelectScratch rank_scratch_;
  std::map<std::uint64_t, std::unique_ptr<SynCache>> shards_;
};

}  // namespace rups::core
