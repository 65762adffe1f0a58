#include "stream/stream_engine.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace rups::stream {
namespace {

struct StreamMetrics {
  obs::Counter& updates = obs::Registry::global().counter("stream.updates");
  obs::Counter& estimates =
      obs::Registry::global().counter("stream.estimates");
  obs::Counter& beacon_bytes =
      obs::Registry::global().counter("stream.beacon_bytes");
  obs::Histogram& update_us =
      obs::Registry::global().histogram("stream.update_us");
  obs::CounterFamily& outcomes = obs::Registry::global().counter_family(
      "stream.beacon_outcome", "outcome");
};

StreamMetrics& stream_metrics() {
  static StreamMetrics m;
  return m;
}

[[nodiscard]] std::uint64_t end_of(const core::ContextTrajectory& t) noexcept {
  return t.empty() ? 0 : t.first_metre() + t.size();
}

}  // namespace

StreamingEngine::StreamingEngine(StreamConfig config)
    : config_(config), fleet_(config.fleet) {}

void StreamingEngine::add_neighbour(std::uint64_t id, v2v::DsrcLink* link,
                                    v2v::FaultyChannel* channel) {
  add_neighbour(id);
  neighbours_.back().beacon = std::make_unique<BeaconSession>(
      config_.fleet.rups.channels, config_.fleet.rups.context_capacity_m,
      link, channel, config_.beacon);
}

void StreamingEngine::add_neighbour(std::uint64_t id) {
  for (const Neighbour& nb : neighbours_) {
    if (nb.id == id) {
      throw std::invalid_argument("StreamingEngine: duplicate neighbour id");
    }
  }
  Neighbour nb;
  nb.id = id;
  neighbours_.push_back(std::move(nb));
}

void StreamingEngine::remove_neighbour(std::uint64_t id) {
  for (std::size_t i = 0; i < neighbours_.size(); ++i) {
    if (neighbours_[i].id == id) {
      neighbours_.erase(neighbours_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      fleet_.forget(id);
      return;
    }
  }
}

const BeaconStats* StreamingEngine::beacon_stats(std::uint64_t id) const {
  for (const Neighbour& nb : neighbours_) {
    if (nb.id == id) return nb.beacon ? &nb.beacon->stats() : nullptr;
  }
  return nullptr;
}

const core::ContextTrajectory* StreamingEngine::view(std::uint64_t id) const {
  for (const Neighbour& nb : neighbours_) {
    if (nb.id == id) return nb.beacon ? &nb.beacon->view() : nb.last_sender;
  }
  return nullptr;
}

std::size_t StreamingEngine::total_beacon_bytes() const noexcept {
  std::size_t total = 0;
  for (const Neighbour& nb : neighbours_) {
    if (nb.beacon) total += nb.beacon->total_bytes();
  }
  return total;
}

const StreamingEngine::Update& StreamingEngine::update(
    const core::ContextTrajectory& ego,
    std::span<const core::ContextTrajectory* const> senders,
    util::ThreadPool* pool) {
  StreamMetrics& metrics = stream_metrics();
  const double t0 = obs::now_us();

  update_.ids.clear();
  update_.outcomes.clear();
  batch_views_.clear();

  const std::uint64_t ego_end = end_of(ego);
  const bool ego_grew = ego_end != last_ego_end_;

  for (std::size_t i = 0; i < neighbours_.size(); ++i) {
    Neighbour& nb = neighbours_[i];
    const core::ContextTrajectory* sender =
        i < senders.size() ? senders[i] : nullptr;
    const core::ContextTrajectory* nb_view = nullptr;
    BeaconOutcome outcome = BeaconOutcome::kNoNews;
    if (nb.beacon) {
      if (sender != nullptr) {
        const std::size_t bytes_before = nb.beacon->total_bytes();
        outcome = nb.beacon->beacon(*sender);
        metrics.outcomes.with(beacon_outcome_name(outcome)).inc();
        metrics.beacon_bytes.inc(nb.beacon->total_bytes() - bytes_before);
      }
      nb_view = &nb.beacon->view();
    } else {
      nb.last_sender = sender;
      nb_view = sender;
      const std::uint64_t ideal_end =
          nb_view != nullptr ? end_of(*nb_view) : 0;
      outcome = ideal_end != nb.last_view_end ? BeaconOutcome::kSynced
                                              : BeaconOutcome::kNoNews;
    }
    update_.outcomes.push_back(outcome);

    const std::uint64_t view_end = nb_view != nullptr ? end_of(*nb_view) : 0;
    const bool view_grew = view_end != nb.last_view_end;
    nb.last_view_end = view_end;
    if (nb_view != nullptr && view_end != 0 && ego_end != 0 &&
        (ego_grew || view_grew)) {
      update_.ids.push_back(nb.id);
      batch_views_.push_back(nb_view);
    }
  }
  last_ego_end_ = ego_end;

  if (!update_.ids.empty()) {
    fleet_.estimate_batch_into(
        ego,
        std::span<const core::ContextTrajectory* const>(batch_views_.data(),
                                                        batch_views_.size()),
        std::span<const std::uint64_t>(update_.ids.data(),
                                       update_.ids.size()),
        pool, update_.results);
    std::uint64_t produced = 0;
    for (const auto& r : update_.results) {
      if (r.estimate.has_value()) ++produced;
    }
    estimates_ += produced;
    metrics.estimates.inc(produced);
  }

  metrics.updates.inc();
  metrics.update_us.record(obs::now_us() - t0);
  return update_;
}

}  // namespace rups::stream
