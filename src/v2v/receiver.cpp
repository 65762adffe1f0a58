#include "v2v/receiver.hpp"

#include <algorithm>

namespace rups::v2v {

V2vReceiver::V2vReceiver(std::size_t channels, std::size_t capacity_m)
    : received(std::max<std::size_t>(1, channels),
               std::max<std::size_t>(1, capacity_m)) {}

bool V2vReceiver::ingest(const v2v::ExchangeResult& result,
                         bool full_exchange) {
  if (!result.usable()) {
    // Nothing decodable arrived. A failed tail keeps the watermark, so the
    // next round re-requests the same metres; a failed full just retries.
    if (full_exchange) have_full = false;
    return false;
  }
  const std::uint64_t before_end =
      received.empty() ? 0 : received.first_metre() + received.size();
  if (!received.splice_tail(result.trajectory)) {
    const auto& region = result.trajectory;
    const std::uint64_t region_end =
        region.empty() ? 0 : region.first_metre() + region.size();
    if (full_exchange && region_end > before_end) {
      // A salvaged full transfer that does not connect to the stale cache
      // (the prefix was lost) but reaches PAST it is authoritative for the
      // newest metres: start over from the decoded region.
      received = core::ContextTrajectory(received.channels(),
                                         received.capacity_m());
      (void)received.splice_tail(result.trajectory);
    } else {
      // Either a tail with a gap, or a degraded full whose salvaged region
      // is entirely older than what we already hold. Keep the cache AND the
      // watermark: adopting an older salvage would regress synced_metre and
      // discard metres we already verified — under back-to-back degraded
      // outcomes the re-request must keep starting from the original
      // watermark, not from wherever the last salvage happened to end.
      have_full = false;
      return false;
    }
  }
  have_full = !received.empty();
  if (!received.empty()) {
    synced_metre = received.first_metre() + received.size();
  }
  // Gained metres = the END moved, not the size: a tail spliced into a
  // full window keeps size() constant while the window advances.
  const std::uint64_t after_end =
      received.empty() ? 0 : received.first_metre() + received.size();
  return after_end != before_end || full_exchange;
}

ExchangeResult V2vRig::pull(const core::ContextTrajectory& sender,
                            bool force_full) {
  const bool full = force_full || !receiver.have_full;
  ExchangeResult result =
      full ? session.exchange_full(sender)
           : session.exchange_tail(sender, receiver.synced_metre);
  (void)receiver.ingest(result, full);
  return result;
}

}  // namespace rups::v2v
