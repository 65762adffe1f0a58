#pragma once

// City-scale matcher service: a long-lived front end that partitions a
// fleet of vehicles into regional shards and answers relative-distance
// requests through per-vehicle core::FleetEngine state.
//
//   * Sharding is geographic: a vehicle belongs to the cell
//     floor(position / cell_m), and cells are folded onto shard_count
//     shards. An ego's first accepted submit of a round pins its shard
//     until the next begin_round, so all requests of one ego land in one
//     shard per round and per-ego engine state evolves in submission
//     order regardless of the shard count — shard-routed results are
//     bit-identical to a single-process FleetEngine fed the same
//     sequence, serial or pooled.
//   * Admission control is explicit: submit() returns a reasoned ticket
//     (queue full, session arena exhausted, unknown vehicle, round table
//     full) instead of blocking or growing queues. Rejections are counted
//     per reason (service.admission{reason=...}) and fed to the
//     HealthMonitor admission rule.
//   * Memory is bounded arenas: vehicles and pair sessions live in
//     util::FixedPool freelists, request queues are util::BoundedRing, and
//     per-ticket result slots are preallocated — after warm-up a steady
//     round performs no dynamic allocation (verified by the span-stage
//     alloc census; see bench_service_scaling).
//
// Round protocol (single-threaded ingest, optionally pooled drain):
//   begin_round(); observe(...)*; submit(...)*; drain(pool);
//   result(ticket)*.
//
// Streaming mode (DESIGN §17) runs alongside the round protocol: a
// subscription is a persistent (ego, neighbour) pair re-estimated by
// drain_stream() whenever the ego context gained metres since the last
// update — the per-vehicle FleetEngine SynCache turns each update into a
// ±12 m re-verification, so continuous estimates cost O(radius·w·k), not a
// full search. Subscriptions pin a pair session (the same arena bound as
// round traffic) and are torn down by unsubscribe()/deregister_vehicle().

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/fleet.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "util/fixed_pool.hpp"
#include "util/thread_pool.hpp"

namespace rups::service {

struct ServiceConfig {
  /// Per-vehicle engine configuration. Trajectory width/length come from
  /// fleet.rups (channels, context_capacity_m). per_neighbour_latency is
  /// forced off: the uint64-labeled latency family allocates per call.
  core::FleetConfig fleet{};
  std::size_t shard_count = 4;
  /// Geographic cell width (metres of road position) folded onto shards.
  double cell_m = 250.0;
  /// Per-shard request queue capacity (admission backpressure bound).
  std::size_t queue_capacity = 1024;
  /// Vehicle arena capacity. Each vehicle holds its trajectory, one pack
  /// (read by every query on it, as ego and as neighbour) and its engine,
  /// whose SynCache shards keep no float pack of their own.
  std::size_t max_vehicles = 1024;
  /// Pair-session arena capacity (one per distinct (ego, neighbour)).
  std::size_t max_sessions = 4096;
  /// Per-round ticket table size; 0 = shard_count * queue_capacity.
  std::size_t max_round_requests = 0;
};

class MatcherService {
 public:
  static constexpr std::uint32_t kInvalidIndex =
      std::numeric_limits<std::uint32_t>::max();

  enum class Admission : std::uint8_t {
    kAccepted = 0,
    kQueueFull,       ///< the ego's regional shard queue is at capacity
    kSessionsFull,    ///< pair-session arena exhausted
    kUnknownVehicle,  ///< ego or neighbour not registered
    kRoundFull,       ///< per-round ticket table exhausted
  };
  /// Stable label for metrics/logs ("accepted", "queue_full", ...).
  [[nodiscard]] static const char* admission_reason(Admission a) noexcept;

  /// Admission outcome of one submit. `index` addresses the result slot
  /// (valid until the next begin_round); `shard` is where the request ran.
  struct Ticket {
    Admission admission = Admission::kAccepted;
    std::uint32_t index = kInvalidIndex;
    std::uint32_t shard = 0;

    [[nodiscard]] bool accepted() const noexcept {
      return admission == Admission::kAccepted;
    }
  };

  /// Post-drain shard accounting for the last round.
  struct ShardStats {
    std::uint64_t processed = 0;  ///< requests drained this round
    double busy_us = 0.0;         ///< serial compute time this round
  };

  /// Throws std::invalid_argument when config.fleet.rups.syn fails
  /// core::validate, before any vehicle is registered.
  explicit MatcherService(ServiceConfig config = {});

  /// Admit a vehicle into the arena. Returns false (and counts a
  /// vehicles_full rejection) when the pool is exhausted, and false (counted
  /// in service.rejected_input{reason="non_finite_position"}) for a NaN or
  /// infinite position.
  [[nodiscard]] bool register_vehicle(std::uint64_t id,
                                      double position_m = 0.0);
  /// Release a vehicle: its slot, every pair session touching it, the
  /// SynCache shards other egos keep for it, every streaming subscription
  /// on it, and any request of it still queued this round (the queued
  /// request's ticket resolves to "no estimate" instead of reading a
  /// released slot) all return to the freelists.
  bool deregister_vehicle(std::uint64_t id);

  /// Append one context-trajectory metre for `id` and update its road
  /// position (shard routing key). The evicted PowerVector's buffers are
  /// recycled into the next append — steady-state observes do not allocate.
  /// Returns false for unknown ids, and rejects without touching the
  /// vehicle a non-finite position (counted as in register_vehicle) or a
  /// `power` whose width is not the configured channel count
  /// (service.rejected_input{reason="width_mismatch"}).
  bool observe(std::uint64_t id, double position_m, core::GeoSample geo,
               const core::PowerVector& power);

  /// Start a new round: invalidates all tickets and resets shard stats.
  void begin_round();

  /// Request the ego-vs-neighbour relative distance. Routed to the ego's
  /// regional shard, pinned by its first accepted submit of the round;
  /// rejected with a reason instead of blocking.
  [[nodiscard]] Ticket submit(std::uint64_t ego_id,
                              std::uint64_t neighbour_id);

  /// Drain every shard queue. With a pool, shards are sliced across it
  /// (each shard stays single-consumer); results are identical either way.
  void drain(util::ThreadPool* pool = nullptr);

  /// Result slot of an accepted ticket, valid until the next begin_round.
  /// Holds no estimate until the drain() that serves it; a rejected ticket
  /// always reads no estimate.
  [[nodiscard]] const core::FleetEngine::NeighbourResult& result(
      const Ticket& ticket) const {
    return ticket.index == kInvalidIndex ? kNoEstimate
                                         : tickets_[ticket.index][0];
  }

  // --- Streaming mode -----------------------------------------------------

  /// Open (or return the existing) persistent streaming subscription for
  /// the pair. The ticket's `index` addresses the subscription slot and
  /// stays valid across rounds until unsubscribe()/deregister; rejections
  /// reuse the round reasons (kUnknownVehicle, kSessionsFull for the pinned
  /// pair session, kQueueFull when the subscription table is exhausted).
  [[nodiscard]] Ticket subscribe(std::uint64_t ego_id,
                                 std::uint64_t neighbour_id);
  /// Close the pair's subscription (the pinned session stays cached like
  /// any round-path session). Returns false when none exists.
  bool unsubscribe(std::uint64_t ego_id, std::uint64_t neighbour_id);

  /// Re-estimate every subscription whose ego context gained metres since
  /// its last update. With a pool, subscriptions are sliced by the ego's
  /// regional shard (all subscriptions of one ego share a shard, so
  /// per-ego engine state keeps a single consumer); results are identical
  /// serial or pooled.
  void drain_stream(util::ThreadPool* pool = nullptr);

  /// Latest streaming result of a subscription ticket. Holds no estimate
  /// until the first drain_stream() after the ego context grew; a rejected
  /// ticket always reads no estimate.
  [[nodiscard]] const core::FleetEngine::NeighbourResult& stream_result(
      const Ticket& ticket) const {
    return ticket.index == kInvalidIndex ? kNoEstimate
                                         : stream_subs_[ticket.index].result[0];
  }
  [[nodiscard]] std::size_t stream_count() const noexcept {
    return stream_index_.size();
  }

  [[nodiscard]] std::size_t vehicle_count() const noexcept {
    return vehicles_.in_use();
  }
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.in_use();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] const ShardStats& shard_stats(std::size_t shard) const {
    return shards_[shard].stats;
  }
  /// Per-request latencies (us) recorded by the last drain of `shard`.
  [[nodiscard]] const std::vector<double>& shard_latencies(
      std::size_t shard) const {
    return shards_[shard].latencies;
  }
  /// Which shard `id` currently routes to (by its last observed position).
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t id) const;
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  void set_health_monitor(obs::HealthMonitor* monitor) noexcept {
    health_ = monitor;
  }

 private:
  struct VehicleSlot {
    VehicleSlot(std::uint64_t vid, double pos, const core::FleetConfig& fc)
        : id(vid),
          position_m(pos),
          traj(fc.rups.channels, fc.rups.context_capacity_m),
          spare(fc.rups.channels),
          engine(fc) {}

    std::uint64_t id;
    double position_m;
    core::ContextTrajectory traj;
    /// Recycled eviction buffer: append_evict returns the displaced
    /// PowerVector here so the next observe reuses its heap buffers.
    core::PowerVector spare;
    core::FleetEngine engine;
    /// The vehicle's one pack: synced by sync_packs() at the start of every
    /// drain() and drain_stream(), then read by every query on the vehicle,
    /// as ego and as neighbour. It syncs with volatile_suffix_m = 0 because
    /// service trajectories are append-only — observe() is their only
    /// writer, through append_evict, and nothing back-fills them — so only
    /// new columns need packing.
    core::PackedContext pack;
    /// Shard this ego's requests run on during round `pinned_round`; the
    /// sentinel never equals rounds_, even before the first begin_round.
    std::uint64_t pinned_round = std::numeric_limits<std::uint64_t>::max();
    std::uint32_t pinned_shard = 0;
  };

  /// One live (ego, neighbour) pair. Its existence bounds how many
  /// SynCache shards the ego engines may grow.
  struct PairSession {
    std::uint32_t ego_slot = 0;
    std::uint32_t neighbour_slot = 0;
    std::uint64_t queries = 0;
  };

  struct QueuedRequest {
    std::uint32_t ego_slot = 0;
    std::uint32_t neighbour_slot = 0;
    std::uint32_t session = 0;
    std::uint32_t ticket = 0;
  };

  struct Shard {
    explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}
    util::BoundedRing<QueuedRequest> queue;
    ShardStats stats;
    std::vector<double> latencies;  ///< per-request us, last drain
  };

  /// One persistent streaming subscription (see subscribe()).
  struct StreamSub {
    std::uint32_t session = 0;
    std::uint32_t ego_slot = 0;
    std::uint32_t neighbour_slot = 0;
    /// Ego context end metre at the last update (0 = never estimated).
    std::uint64_t last_end = 0;
    bool active = false;
    /// Single-element batch slot; capacity persists across updates.
    std::vector<core::FleetEngine::NeighbourResult> result;
  };

  [[nodiscard]] std::uint32_t shard_of_position(double position_m) const;
  /// Serial pass: bring every vehicle pack whose trajectory moved in sync.
  void sync_packs();
  /// One ego-vs-neighbour query through both vehicles' packs.
  static void estimate(
      VehicleSlot& ego, const VehicleSlot& neighbour,
      std::vector<core::FleetEngine::NeighbourResult>& result);
  void drain_shard(std::size_t shard_index);
  void drain_stream_shard(std::size_t shard_index);
  Ticket reject(Admission reason);
  /// Drop queued requests touching `slot` (deregister mid-round); their
  /// tickets keep reading no estimate instead of a released slot.
  void purge_queued(std::uint32_t slot);
  /// Resolve a single-element result slot to "no estimate" (the shape a
  /// below-threshold query produces), keeping its capacity.
  static void clear_result(
      std::vector<core::FleetEngine::NeighbourResult>& slot);

  /// What result() and stream_result() read for a rejected ticket.
  static inline const core::FleetEngine::NeighbourResult kNoEstimate{};

  ServiceConfig config_;
  util::FixedPool<VehicleSlot> vehicles_;
  util::FixedPool<PairSession> sessions_;
  std::unordered_map<std::uint64_t, std::uint32_t> vehicle_index_;
  /// (ego_slot << 32 | neighbour_slot) -> session pool index.
  std::map<std::uint64_t, std::uint32_t> session_index_;
  std::vector<Shard> shards_;
  /// Per-ticket result slots: single-element batches whose capacity
  /// (including syn_points) persists across rounds.
  std::vector<std::vector<core::FleetEngine::NeighbourResult>> tickets_;
  /// Streaming subscriptions: slots recycled through stream_free_, looked
  /// up by the same (ego_slot, neighbour_slot) pair key as sessions.
  std::vector<StreamSub> stream_subs_;
  std::vector<std::uint32_t> stream_free_;
  std::map<std::uint64_t, std::uint32_t> stream_index_;
  std::uint32_t round_requests_ = 0;
  std::uint64_t rounds_ = 0;
  obs::HealthMonitor* health_ = nullptr;
  /// Cached registry handles (stable for the registry's lifetime) so the
  /// hot path skips the name lookup and its mutex.
  obs::Counter& m_requests_;
  obs::Counter& m_queries_;
  obs::Counter& m_estimates_;
  obs::CounterFamily& m_admission_;
  obs::Histogram& m_latency_;
  obs::Counter& m_stream_updates_;
  obs::Counter& m_stream_estimates_;
  obs::Histogram& m_stream_us_;
};

}  // namespace rups::service
