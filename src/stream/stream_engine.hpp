#pragma once

// StreamingEngine (DESIGN §17): the per-metre front end of the matcher.
// Instead of the round protocol's "exchange, then query" shape, a
// streaming ego ingests context continuously and keeps one estimate per
// neighbour fresh:
//
//   * ego context arrives one metre at a time (core::ContextTrajectory
//     append/eviction, PackedContext incremental sync underneath);
//   * each neighbour is either a *beacon* neighbour — its context arrives
//     via a BeaconSession diff protocol over the ARQ/fault stack — or an
//     *ideal* neighbour, estimated directly against the sender's pristine
//     context (the determinism / accuracy reference);
//   * every update re-estimates the neighbours whose view changed through
//     the shared core::FleetEngine, so steady-state per-metre estimates
//     are SynCache ±12 m re-verifications, not full searches.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/fleet.hpp"
#include "stream/beacon.hpp"
#include "util/thread_pool.hpp"

namespace rups::stream {

struct StreamConfig {
  /// Per-ego engine configuration (trajectory geometry, SynCache policy).
  core::FleetConfig fleet{};
  /// Diff-protocol policy shared by every beacon neighbour.
  BeaconConfig beacon{};
};

/// One ego vehicle's streaming estimator. Not thread-safe as a whole (one
/// update at a time); per-neighbour estimation inside an update may be
/// sharded across a util::ThreadPool with bit-identical results.
class StreamingEngine {
 public:
  /// What one update() produced. References into the engine's scratch —
  /// valid until the next update().
  struct Update {
    /// Neighbours re-estimated this update (subset of the registered set,
    /// registration order preserved).
    std::vector<std::uint64_t> ids;
    /// results[i] belongs to ids[i].
    std::vector<core::FleetEngine::NeighbourResult> results;
    /// Per REGISTERED neighbour (registration order): how its beacon round
    /// ended. Ideal neighbours report kSynced when their context grew and
    /// kNoNews otherwise.
    std::vector<BeaconOutcome> outcomes;
  };

  explicit StreamingEngine(StreamConfig config = {});

  /// Register a beacon neighbour: context arrives via a BeaconSession on
  /// `link`/`channel` (channel may be nullptr for an ideal link). Both
  /// overloads throw std::invalid_argument, registering nothing, when `id`
  /// is already registered.
  void add_neighbour(std::uint64_t id, v2v::DsrcLink* link,
                     v2v::FaultyChannel* channel);
  /// Register an ideal neighbour: estimates run directly against the
  /// sender context passed to update() — no codec, no channel.
  void add_neighbour(std::uint64_t id);
  /// Drop a neighbour (and its SynCache shard / beacon session).
  void remove_neighbour(std::uint64_t id);

  /// One streaming step. `senders[i]` is the CURRENT context of the i-th
  /// registered neighbour (registration order; nullptr = nothing sent this
  /// step). Runs one beacon round per beacon neighbour, then re-estimates
  /// every neighbour whose (view, ego) pair gained metres since its last
  /// estimate. Throws std::invalid_argument, changing nothing, when the
  /// size of `senders` differs from neighbour_count().
  const Update& update(const core::ContextTrajectory& ego,
                       std::span<const core::ContextTrajectory* const> senders,
                       util::ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t neighbour_count() const noexcept {
    return neighbours_.size();
  }
  /// Beacon accounting of one neighbour; nullptr for ideal neighbours.
  [[nodiscard]] const BeaconStats* beacon_stats(std::uint64_t id) const;
  /// Receiver-side view of one neighbour (the sender context itself for
  /// ideal neighbours); nullptr for unknown ids.
  [[nodiscard]] const core::ContextTrajectory* view(std::uint64_t id) const;
  /// Wire bytes across all beacon neighbours so far.
  [[nodiscard]] std::size_t total_beacon_bytes() const noexcept;
  /// Estimates produced across the engine lifetime.
  [[nodiscard]] std::uint64_t estimates() const noexcept { return estimates_; }
  [[nodiscard]] core::FleetEngine& fleet() noexcept { return fleet_; }
  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

 private:
  struct Neighbour {
    std::uint64_t id = 0;
    /// nullptr = ideal mode.
    std::unique_ptr<BeaconSession> beacon;
    /// View end metre at the last estimate (gain detector).
    std::uint64_t last_view_end = 0;
    /// Most recent sender context passed to update() (ideal mode only).
    const core::ContextTrajectory* last_sender = nullptr;
  };

  StreamConfig config_;
  core::FleetEngine fleet_;
  std::vector<Neighbour> neighbours_;
  /// Ego end metre at the last update that estimated anything.
  std::uint64_t last_ego_end_ = 0;
  std::uint64_t estimates_ = 0;
  Update update_;
  /// Batch scratch, rebuilt per update without steady-state allocation.
  std::vector<const core::ContextTrajectory*> batch_views_;
};

}  // namespace rups::stream
