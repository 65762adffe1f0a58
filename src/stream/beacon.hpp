#pragma once

// Beacon-diff V2V session (DESIGN §17). A streaming neighbour does not
// re-send its journey context per query; it announces a sequence watermark
// in a small periodic WsmPacket beacon and ships only the tail delta past
// the receiver's watermark — over the same ARQ/fault exchange stack the
// round-based path uses (v2v::ExchangeSession), so loss, reordering and
// corruption genuinely reach the diff protocol. Gap handling is
// watermark-based and bounded:
//
//   * a beacon that fails or degrades leaves the receiver watermark where
//     it was (v2v::V2vReceiver's idempotent gap bookkeeping), so the next
//     beacon re-requests the SAME metres — no gap can silently widen;
//   * `BeaconConfig::max_gap_rerequests` consecutive beacons without
//     catching up fall back to a full context re-sync, the recovery of
//     last resort.

#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "v2v/channel.hpp"
#include "v2v/exchange.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"

namespace rups::stream {

struct BeaconConfig {
  /// Consecutive beacons allowed to end short of the sender watermark
  /// before the session abandons diffing and re-transfers the full
  /// context. Bounds how long a lossy channel can hold the view stale.
  std::size_t max_gap_rerequests = 3;
  /// ARQ policy of the underlying per-beacon exchange.
  v2v::ExchangeConfig exchange{};
};

/// How one beacon round ended, from the receiver's point of view.
enum class BeaconOutcome : std::uint8_t {
  kSynced,     ///< tail delta caught the view up to the sender watermark
  kNoNews,     ///< watermark-only heartbeat: sender had nothing new
  kRecovered,  ///< caught up after earlier stale rounds (gap healed)
  kStale,      ///< beacon lost/degraded short of the watermark; re-request pending
  kResync,     ///< full context transfer (initial sync or gap fallback)
};

/// Stable label for metrics/logs ("synced", "no_news", ...).
[[nodiscard]] const char* beacon_outcome_name(BeaconOutcome o) noexcept;

/// Per-session protocol accounting.
struct BeaconStats {
  std::uint64_t beacons = 0;        ///< beacon rounds run
  std::uint64_t diffs = 0;          ///< rounds that shipped a tail delta
  std::uint64_t no_news = 0;        ///< watermark-only heartbeats
  std::uint64_t rerequests = 0;     ///< rounds that ended short of the watermark
  std::uint64_t resyncs = 0;        ///< full transfers (initial + fallback)
  std::uint64_t metres_gained = 0;  ///< context metres the view advanced
};

/// One receiver-side beacon-diff session against one sending neighbour.
/// Owns one v2v::V2vRig (receiver cache + exchange protocol state); the
/// sender's live trajectory is passed per beacon (the simulation shortcut
/// every exchange user here takes — framing/channel damage still applies to
/// everything that crosses the link).
class BeaconSession {
 public:
  /// Wire size of a watermark-only heartbeat: one WsmPacket header
  /// (message id 4 + seq 2 + total 2 + crc 4) carrying the sender's
  /// 8-byte end watermark.
  static constexpr std::size_t kHeartbeatBytes = 20;

  /// `channels`/`capacity_m` size the receiver-side cache (match the
  /// sender's trajectory geometry). `channel` may be nullptr for an ideal
  /// link.
  BeaconSession(std::size_t channels, std::size_t capacity_m,
                v2v::DsrcLink* link, v2v::FaultyChannel* channel,
                BeaconConfig config = {});

  /// Run one beacon round against the sender's current context: heartbeat
  /// when the view is already at the sender watermark, tail delta from the
  /// receiver watermark otherwise, full re-sync when the view never synced
  /// or the gap bound tripped.
  BeaconOutcome beacon(const core::ContextTrajectory& sender);

  /// Receiver-side view of the neighbour (estimate against this).
  [[nodiscard]] const core::ContextTrajectory& view() const noexcept {
    return rig_.receiver.received;
  }
  [[nodiscard]] std::uint64_t watermark() const noexcept {
    return rig_.receiver.synced_metre;
  }
  [[nodiscard]] const BeaconStats& stats() const noexcept { return stats_; }
  /// Wire bytes so far: exchange payload bytes + heartbeat headers.
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return rig_.session.total_bytes() + stats_.no_news * kHeartbeatBytes;
  }
  [[nodiscard]] const BeaconConfig& config() const noexcept { return config_; }

 private:
  BeaconConfig config_;
  v2v::V2vRig rig_;
  /// Consecutive rounds that ended short of the sender watermark.
  std::size_t pending_rerequests_ = 0;
  BeaconStats stats_;
};

}  // namespace rups::stream
