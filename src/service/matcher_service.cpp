#include "service/matcher_service.hpp"

#include <cmath>
#include <span>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace rups::service {

namespace {

/// Session map key. Slot indices are < 2^32 by FixedPool construction.
constexpr std::uint64_t pair_key(std::uint32_t ego,
                                 std::uint32_t neighbour) noexcept {
  return (static_cast<std::uint64_t>(ego) << 32) | neighbour;
}

/// Count a refused input and return false. The family is registered on
/// the first rejection, so clean runs export exactly the metrics they did
/// before.
bool reject_input(const char* reason) {
  obs::Registry::global()
      .counter_family("service.rejected_input", "reason")
      .with(reason)
      .inc();
  return false;
}

/// Shard routing keys must be finite: count and refuse anything else.
bool finite_position(double position_m) {
  return std::isfinite(position_m) || reject_input("non_finite_position");
}

}  // namespace

const char* MatcherService::admission_reason(Admission a) noexcept {
  switch (a) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kQueueFull:
      return "queue_full";
    case Admission::kSessionsFull:
      return "sessions_full";
    case Admission::kUnknownVehicle:
      return "unknown_vehicle";
    case Admission::kRoundFull:
      return "round_full";
  }
  return "unknown";
}

MatcherService::MatcherService(ServiceConfig config)
    : config_(config),
      vehicles_(std::max<std::size_t>(1, config.max_vehicles)),
      sessions_(std::max<std::size_t>(1, config.max_sessions)),
      m_requests_(obs::Registry::global().counter("service.requests")),
      m_queries_(obs::Registry::global().counter("service.queries")),
      m_estimates_(obs::Registry::global().counter("service.estimates")),
      m_admission_(obs::Registry::global().counter_family(
          "service.admission", "reason")),
      m_latency_(obs::Registry::global().histogram("service.request_us")),
      m_stream_updates_(
          obs::Registry::global().counter("service.stream.updates")),
      m_stream_estimates_(
          obs::Registry::global().counter("service.stream.estimates")),
      m_stream_us_(
          obs::Registry::global().histogram("service.stream.update_us")) {
  // Vehicles build their FleetEngine lazily, so a config no seek could run
  // is rejected here rather than out of register_vehicle().
  core::validate(config_.fleet.rups.syn);
  config_.shard_count = std::max<std::size_t>(1, config_.shard_count);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  if (config_.cell_m <= 0.0) config_.cell_m = 250.0;
  // The uint64-labeled per-neighbour latency family formats its label per
  // call, which allocates — incompatible with the zero-alloc round.
  config_.fleet.per_neighbour_latency = false;
  if (config_.max_round_requests == 0) {
    config_.max_round_requests =
        config_.shard_count * config_.queue_capacity;
  }
  shards_.reserve(config_.shard_count);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    shards_.emplace_back(config_.queue_capacity);
    shards_.back().latencies.reserve(config_.queue_capacity);
  }
  tickets_.resize(config_.max_round_requests);
  vehicle_index_.reserve(vehicles_.capacity());
  obs::Registry::global().gauge("service.shards").set(
      static_cast<double>(shards_.size()));
}

bool MatcherService::register_vehicle(std::uint64_t id, double position_m) {
  obs::Registry& reg = obs::Registry::global();
  if (!finite_position(position_m)) return false;
  if (vehicle_index_.contains(id)) return false;
  const std::uint32_t slot =
      vehicles_.acquire_index(id, position_m, config_.fleet);
  if (slot == util::FixedPool<VehicleSlot>::npos) {
    reg.counter("service.register_rejected").inc();
    RUPS_LOG(kWarn) << "matcher service: vehicle arena full ("
                    << vehicles_.capacity() << "), rejecting id " << id;
    return false;
  }
  vehicle_index_.emplace(id, slot);
  reg.gauge("service.vehicles").set(static_cast<double>(vehicles_.in_use()));
  return true;
}

bool MatcherService::deregister_vehicle(std::uint64_t id) {
  const auto it = vehicle_index_.find(id);
  if (it == vehicle_index_.end()) return false;
  const std::uint32_t slot = it->second;

  // Requests still queued this round reference the slot by index; drop
  // them BEFORE the slot is released so a deregister between submit() and
  // drain() cannot make a worker estimate through a destroyed engine.
  purge_queued(slot);

  // Release every pair session touching the slot; other egos also drop the
  // SynCache shard they keep for this neighbour.
  for (auto sit = session_index_.begin(); sit != session_index_.end();) {
    const PairSession& session = sessions_[sit->second];
    if (session.ego_slot == slot || session.neighbour_slot == slot) {
      if (session.neighbour_slot == slot) {
        vehicles_[session.ego_slot].engine.forget(id);
      }
      sessions_.release_index(sit->second);
      sit = session_index_.erase(sit);
    } else {
      ++sit;
    }
  }

  // Streaming subscriptions on the slot go back to the freelist (their
  // pinned sessions were just released above).
  for (auto sub_it = stream_index_.begin(); sub_it != stream_index_.end();) {
    StreamSub& sub = stream_subs_[sub_it->second];
    if (sub.ego_slot == slot || sub.neighbour_slot == slot) {
      sub.active = false;
      stream_free_.push_back(sub_it->second);
      sub_it = stream_index_.erase(sub_it);
    } else {
      ++sub_it;
    }
  }

  vehicles_.release_index(slot);
  vehicle_index_.erase(it);
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("service.vehicles").set(static_cast<double>(vehicles_.in_use()));
  reg.gauge("service.sessions").set(static_cast<double>(sessions_.in_use()));
  return true;
}

bool MatcherService::observe(std::uint64_t id, double position_m,
                             core::GeoSample geo,
                             const core::PowerVector& power) {
  if (!finite_position(position_m)) return false;
  const auto it = vehicle_index_.find(id);
  if (it == vehicle_index_.end()) return false;
  VehicleSlot& slot = vehicles_[it->second];
  if (power.channels() != slot.traj.channels()) {
    return reject_input("width_mismatch");
  }
  for (std::size_t c = 0; c < power.channels(); ++c) {
    if (power.usable(c) && !std::isfinite(power.at(c))) {
      return reject_input("non_finite_rssi");
    }
  }
  if (!std::isfinite(geo.heading_rad) || !std::isfinite(geo.time_s)) {
    return reject_input("non_finite_geo");
  }
  slot.position_m = position_m;
  // Copy into the recycled buffer (equal width: no allocation), then swap
  // it for whatever the bounded trajectory evicts.
  slot.spare = power;
  slot.spare = slot.traj.append_evict(geo, std::move(slot.spare));
  return true;
}

void MatcherService::begin_round() {
  round_requests_ = 0;
  ++rounds_;
  for (Shard& shard : shards_) {
    shard.stats = ShardStats{};
    shard.latencies.clear();
  }
  obs::Registry::global().gauge("service.rounds").set(
      static_cast<double>(rounds_));
}

std::uint32_t MatcherService::shard_of_position(double position_m) const {
  // Floored modulo in floating point: fmod of integral doubles is exact,
  // so in-range cells map as integer arithmetic would, and cells beyond
  // any integer type still land in [0, shard_count).
  const double cell = std::floor(position_m / config_.cell_m);
  if (!std::isfinite(cell)) return 0;
  const auto n = static_cast<double>(shards_.size());
  double shard = std::fmod(cell, n);
  if (shard < 0.0) shard += n;
  return static_cast<std::uint32_t>(shard);
}

std::uint32_t MatcherService::shard_of(std::uint64_t id) const {
  const auto it = vehicle_index_.find(id);
  if (it == vehicle_index_.end()) return 0;
  return shard_of_position(vehicles_[it->second].position_m);
}

MatcherService::Ticket MatcherService::reject(Admission reason) {
  m_admission_.with(admission_reason(reason)).inc();
  if (health_ != nullptr) health_->on_admission(false);
  Ticket t;
  t.admission = reason;
  return t;
}

MatcherService::Ticket MatcherService::submit(std::uint64_t ego_id,
                                              std::uint64_t neighbour_id) {
  obs::Registry& reg = obs::Registry::global();
  m_requests_.inc();

  const auto ego_it = vehicle_index_.find(ego_id);
  const auto nb_it = vehicle_index_.find(neighbour_id);
  if (ego_it == vehicle_index_.end() || nb_it == vehicle_index_.end() ||
      ego_id == neighbour_id) {
    return reject(Admission::kUnknownVehicle);
  }
  if (round_requests_ >= tickets_.size()) {
    return reject(Admission::kRoundFull);
  }

  const std::uint32_t ego_slot = ego_it->second;
  const std::uint32_t nb_slot = nb_it->second;
  const std::uint64_t key = pair_key(ego_slot, nb_slot);
  auto session_it = session_index_.find(key);
  if (session_it == session_index_.end()) {
    const std::uint32_t session = sessions_.acquire_index();
    if (session == util::FixedPool<PairSession>::npos) {
      return reject(Admission::kSessionsFull);
    }
    sessions_[session].ego_slot = ego_slot;
    sessions_[session].neighbour_slot = nb_slot;
    session_it = session_index_.emplace(key, session).first;
    reg.gauge("service.sessions").set(
        static_cast<double>(sessions_.in_use()));
  }

  VehicleSlot& ego = vehicles_[ego_slot];
  const std::uint32_t shard_index = ego.pinned_round == rounds_
                                        ? ego.pinned_shard
                                        : shard_of_position(ego.position_m);
  Shard& shard = shards_[shard_index];
  QueuedRequest request;
  request.ego_slot = ego_slot;
  request.neighbour_slot = nb_slot;
  request.session = session_it->second;
  request.ticket = round_requests_;
  if (!shard.queue.push(request)) {
    return reject(Admission::kQueueFull);
  }

  ego.pinned_round = rounds_;
  ego.pinned_shard = shard_index;
  // Until the drain that serves it, the ticket reads "no estimate".
  clear_result(tickets_[request.ticket]);
  ++round_requests_;
  m_admission_.with(admission_reason(Admission::kAccepted)).inc();
  if (health_ != nullptr) health_->on_admission(true);
  Ticket t;
  t.admission = Admission::kAccepted;
  t.index = request.ticket;
  t.shard = shard_index;
  return t;
}

void MatcherService::prepare_vehicles(util::ThreadPool* pool) {
  // Slice s prepares the vehicles whose slot index is s modulo the shard
  // count, so every pack and ranking has one writer, and the pool's join
  // orders all of them before the first query reads any.
  const auto prepare_slice = [this](std::size_t s) {
    for (const auto& [id, index] : vehicle_index_) {
      if (index % shards_.size() != s) continue;
      VehicleSlot& v = vehicles_[index];
      v.pack.sync(v.traj, v.engine.config().cache.volatile_suffix_m);
      core::rank_recent_windows(v.traj, config_.fleet.rups.syn, v.ranks,
                                shards_[s].rank_scratch, &v.pack);
    }
  };
  if (pool == nullptr || shards_.size() <= 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) prepare_slice(s);
    return;
  }
  pool->parallel_for(0, shards_.size(), prepare_slice);
}

void MatcherService::estimate(VehicleSlot& ego, const VehicleSlot& neighbour,
                              std::vector<core::FleetEngine::NeighbourResult>&
                                  result) {
  const core::ContextTrajectory* nb_traj = &neighbour.traj;
  const core::PackedContext* nb_pack = &neighbour.pack;
  const core::WindowRanks* nb_ranks = &neighbour.ranks;
  ego.engine.estimate_batch_into(
      ego.traj, std::span<const core::ContextTrajectory* const>(&nb_traj, 1),
      std::span<const std::uint64_t>(&neighbour.id, 1), nullptr, result,
      &ego.pack, std::span<const core::PackedContext* const>(&nb_pack, 1),
      &ego.ranks, std::span<const core::WindowRanks* const>(&nb_ranks, 1));
}

void MatcherService::drain_shard(std::size_t shard_index) {
  Shard& shard = shards_[shard_index];
  const double start_us = obs::now_us();

  QueuedRequest request;
  while (shard.queue.pop(request)) {
    const double t0 = obs::now_us();
    estimate(vehicles_[request.ego_slot], vehicles_[request.neighbour_slot],
             tickets_[request.ticket]);
    const double elapsed = obs::now_us() - t0;

    ++sessions_[request.session].queries;
    ++shard.stats.processed;
    if (shard.latencies.size() < shard.latencies.capacity()) {
      shard.latencies.push_back(elapsed);
    }
    m_latency_.record(elapsed);
    m_queries_.inc();
    if (tickets_[request.ticket][0].estimate.has_value()) {
      m_estimates_.inc();
    }
  }
  shard.stats.busy_us = obs::now_us() - start_us;
}

void MatcherService::drain(util::ThreadPool* pool) {
  prepare_vehicles(pool);
  if (pool == nullptr || shards_.size() <= 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) drain_shard(s);
    return;
  }
  // One slice per shard; every shard queue keeps a single consumer, so the
  // unsynchronized BoundedRing stays safe and results match serial drains.
  pool->parallel_for(0, shards_.size(),
                     [this](std::size_t s) { drain_shard(s); });
}

void MatcherService::purge_queued(std::uint32_t slot) {
  for (Shard& shard : shards_) {
    const std::size_t pending = shard.queue.size();
    QueuedRequest request;
    for (std::size_t i = 0; i < pending; ++i) {
      if (!shard.queue.pop(request)) break;
      if (request.ego_slot == slot || request.neighbour_slot == slot) {
        // The ticket was already handed out; it keeps the "no estimate"
        // submit() left in its slot.
        obs::Registry::global().counter("service.requests_purged").inc();
        continue;
      }
      (void)shard.queue.push(request);  // cannot fail: one slot just freed
    }
  }
}

void MatcherService::clear_result(
    std::vector<core::FleetEngine::NeighbourResult>& slot) {
  slot.resize(1);
  slot[0].estimate.reset();
  slot[0].syn_points.clear();
  slot[0].latency_us = 0.0;
}

MatcherService::Ticket MatcherService::subscribe(std::uint64_t ego_id,
                                                 std::uint64_t neighbour_id) {
  obs::Registry& reg = obs::Registry::global();
  m_requests_.inc();

  const auto ego_it = vehicle_index_.find(ego_id);
  const auto nb_it = vehicle_index_.find(neighbour_id);
  if (ego_it == vehicle_index_.end() || nb_it == vehicle_index_.end() ||
      ego_id == neighbour_id) {
    return reject(Admission::kUnknownVehicle);
  }
  const std::uint32_t ego_slot = ego_it->second;
  const std::uint32_t nb_slot = nb_it->second;
  const std::uint64_t key = pair_key(ego_slot, nb_slot);

  const auto accept = [&](std::uint32_t sub_index) {
    m_admission_.with(admission_reason(Admission::kAccepted)).inc();
    if (health_ != nullptr) health_->on_admission(true);
    Ticket t;
    t.admission = Admission::kAccepted;
    t.index = sub_index;
    t.shard = shard_of_position(vehicles_[ego_slot].position_m);
    return t;
  };

  // Idempotent: re-subscribing an open pair returns the existing slot.
  if (const auto sub_it = stream_index_.find(key);
      sub_it != stream_index_.end()) {
    return accept(sub_it->second);
  }

  // Pin the pair session — the same arena bound the round path admits
  // against, so subscriptions cannot grow SynCache state past max_sessions.
  auto session_it = session_index_.find(key);
  if (session_it == session_index_.end()) {
    const std::uint32_t session = sessions_.acquire_index();
    if (session == util::FixedPool<PairSession>::npos) {
      return reject(Admission::kSessionsFull);
    }
    sessions_[session].ego_slot = ego_slot;
    sessions_[session].neighbour_slot = nb_slot;
    session_it = session_index_.emplace(key, session).first;
    reg.gauge("service.sessions").set(
        static_cast<double>(sessions_.in_use()));
  }

  std::uint32_t sub_index;
  if (!stream_free_.empty()) {
    sub_index = stream_free_.back();
    stream_free_.pop_back();
  } else if (stream_subs_.size() < sessions_.capacity()) {
    sub_index = static_cast<std::uint32_t>(stream_subs_.size());
    stream_subs_.emplace_back();
  } else {
    return reject(Admission::kQueueFull);
  }

  StreamSub& sub = stream_subs_[sub_index];
  sub.session = session_it->second;
  sub.ego_slot = ego_slot;
  sub.neighbour_slot = nb_slot;
  sub.last_end = 0;
  sub.active = true;
  clear_result(sub.result);
  stream_index_.emplace(key, sub_index);
  reg.gauge("service.streams").set(
      static_cast<double>(stream_index_.size()));
  return accept(sub_index);
}

bool MatcherService::unsubscribe(std::uint64_t ego_id,
                                 std::uint64_t neighbour_id) {
  const auto ego_it = vehicle_index_.find(ego_id);
  const auto nb_it = vehicle_index_.find(neighbour_id);
  if (ego_it == vehicle_index_.end() || nb_it == vehicle_index_.end()) {
    return false;
  }
  const auto sub_it =
      stream_index_.find(pair_key(ego_it->second, nb_it->second));
  if (sub_it == stream_index_.end()) return false;
  stream_subs_[sub_it->second].active = false;
  stream_free_.push_back(sub_it->second);
  stream_index_.erase(sub_it);
  obs::Registry::global().gauge("service.streams").set(
      static_cast<double>(stream_index_.size()));
  return true;
}

void MatcherService::drain_stream_shard(std::size_t shard_index) {
  for (StreamSub& sub : stream_subs_) {
    if (!sub.active) continue;
    VehicleSlot& ego = vehicles_[sub.ego_slot];
    if (shard_of_position(ego.position_m) != shard_index) continue;
    const core::ContextTrajectory& traj = ego.traj;
    const std::uint64_t end =
        traj.empty() ? 0 : traj.first_metre() + traj.size();
    if (end == sub.last_end) continue;  // no new context since last update

    const double t0 = obs::now_us();
    estimate(ego, vehicles_[sub.neighbour_slot], sub.result);
    m_stream_us_.record(obs::now_us() - t0);

    sub.last_end = end;
    ++sessions_[sub.session].queries;
    m_stream_updates_.inc();
    if (sub.result[0].estimate.has_value()) m_stream_estimates_.inc();
  }
}

void MatcherService::drain_stream(util::ThreadPool* pool) {
  prepare_vehicles(pool);
  if (pool == nullptr || shards_.size() <= 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) drain_stream_shard(s);
    return;
  }
  // Same single-consumer discipline as drain(): an ego's subscriptions all
  // land in its positional shard, so per-ego engine state never crosses a
  // slice boundary.
  pool->parallel_for(0, shards_.size(),
                     [this](std::size_t s) { drain_stream_shard(s); });
}

}  // namespace rups::service
