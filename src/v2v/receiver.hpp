#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "v2v/exchange.hpp"

namespace rups::v2v {

/// Receiver-side view of one neighbour's trajectory, maintained across
/// exchanges: splices delivered/degraded updates onto a cached copy, tracks
/// the sync watermark, and falls back to a full transfer when a failed
/// exchange leaves a gap. Driven through V2vRig by the simulators and the
/// streaming BeaconSession (src/stream).
struct V2vReceiver {
  core::ContextTrajectory received;
  std::uint64_t synced_metre = 0;
  /// False until a usable full context arrived (or after a gap forced a
  /// re-transfer); drives the full-vs-tail decision.
  bool have_full = false;

  V2vReceiver(std::size_t channels, std::size_t capacity_m);

  /// Fold one exchange outcome into the cached copy. `full_exchange` says
  /// whether the sender encoded its whole context (vs a tail update).
  /// Returns true when the cached copy gained metres (the window END
  /// advanced — at capacity the size stays constant while metres arrive).
  /// Gap bookkeeping is idempotent: a degraded outcome whose salvaged
  /// region does not extend past the cache keeps both the cache and
  /// `synced_metre`, so back-to-back kDegraded exchanges re-request from
  /// the original watermark instead of regressing it.
  bool ingest(const v2v::ExchangeResult& result, bool full_exchange);
};

/// One receiver's side of the Sec. V-B exchange: a session over a borrowed
/// link/channel (both must outlive it; channel may be nullptr) plus the
/// cache it fills. `pull` is the one place the full-vs-tail rule lives.
struct V2vRig {
  ExchangeSession session;
  V2vReceiver receiver;

  V2vRig(DsrcLink* link, FaultyChannel* channel, ExchangeConfig config,
         std::size_t channels, std::size_t capacity_m)
      : session(link, channel, config), receiver(channels, capacity_m) {}

  /// Send the sender's whole context when forced or until a usable copy
  /// is cached, else the tail past the watermark; ingest the outcome.
  ExchangeResult pull(const core::ContextTrajectory& sender,
                      bool force_full = false);
};

}  // namespace rups::v2v
