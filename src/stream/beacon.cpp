#include "stream/beacon.hpp"

namespace rups::stream {

const char* beacon_outcome_name(BeaconOutcome o) noexcept {
  switch (o) {
    case BeaconOutcome::kSynced:
      return "synced";
    case BeaconOutcome::kNoNews:
      return "no_news";
    case BeaconOutcome::kRecovered:
      return "recovered";
    case BeaconOutcome::kStale:
      return "stale";
    case BeaconOutcome::kResync:
      return "resync";
  }
  return "unknown";
}

BeaconSession::BeaconSession(std::size_t channels, std::size_t capacity_m,
                             v2v::DsrcLink* link, v2v::FaultyChannel* channel,
                             BeaconConfig config)
    : config_(config),
      rig_(link, channel, config.exchange, channels, capacity_m) {}

BeaconOutcome BeaconSession::beacon(const core::ContextTrajectory& sender) {
  ++stats_.beacons;
  const std::uint64_t sender_end =
      sender.empty() ? 0 : sender.first_metre() + sender.size();

  const bool need_full = !rig_.receiver.have_full ||
                         pending_rerequests_ >= config_.max_gap_rerequests;
  if (!need_full && rig_.receiver.synced_metre >= sender_end) {
    // Sender watermark == receiver watermark: the beacon is a bare
    // heartbeat, nothing crosses the link but the header + watermark.
    ++stats_.no_news;
    return BeaconOutcome::kNoNews;
  }

  const bool recovering = pending_rerequests_ > 0;
  if (need_full) {
    ++stats_.resyncs;
    pending_rerequests_ = 0;  // the fallback consumed the budget
  } else {
    ++stats_.diffs;
  }
  const std::uint64_t before = rig_.receiver.synced_metre;
  (void)rig_.pull(sender, need_full);
  const std::uint64_t after = rig_.receiver.synced_metre;
  if (after > before) stats_.metres_gained += after - before;

  // Caught up = the view holds a usable context whose end reached the
  // sender watermark announced by THIS beacon. (The sender may have moved
  // again by the next beacon; that is news, not a gap.)
  if (rig_.receiver.have_full && after >= sender_end) {
    pending_rerequests_ = 0;
    if (need_full) return BeaconOutcome::kResync;
    return recovering ? BeaconOutcome::kRecovered : BeaconOutcome::kSynced;
  }

  // Short of the watermark: hold position (the receiver kept its
  // watermark — idempotent gap bookkeeping) and schedule a re-request.
  // After max_gap_rerequests consecutive short rounds the next beacon
  // falls back to a full re-sync.
  ++pending_rerequests_;
  ++stats_.rerequests;
  return BeaconOutcome::kStale;
}

}  // namespace rups::stream
