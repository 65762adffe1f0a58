#pragma once

#include <cstddef>
#include <cstdint>

#include "core/types.hpp"
#include "v2v/channel.hpp"
#include "v2v/codec.hpp"
#include "v2v/link.hpp"
#include "v2v/wsm.hpp"

namespace rups::v2v {

/// How an exchange ended.
enum class ExchangeOutcome : std::uint8_t {
  kDelivered,  ///< every fragment arrived; full trajectory decoded
  kDegraded,   ///< a decodable contiguous region (prefix/tail/mid) arrived
  kFailed,     ///< nothing decodable arrived
};

[[nodiscard]] const char* exchange_outcome_name(ExchangeOutcome o) noexcept;

/// Retry policy of one exchange. The per-packet MAC budget lives in
/// DsrcLink::Config::max_transmissions; this bounds the protocol level:
/// how many selective-repeat rounds re-offer the still-missing fragments,
/// with exponential backoff between rounds, under one session deadline in
/// simulated link time.
struct ExchangeConfig {
  std::size_t max_rounds = 4;
  double deadline_s = 5.0;       ///< simulated seconds; <= 0 disables
  double backoff_base_s = 0.01;  ///< wait before round 2
  double backoff_factor = 2.0;
  double backoff_cap_s = 0.16;
};

/// One completed trajectory exchange: the decoded receiver-side context
/// (what actually survived the channel — possibly a subset of what was
/// sent), the communication cost, and the delivery outcome. `trajectory`
/// is empty when outcome == kFailed.
struct ExchangeResult {
  core::ContextTrajectory trajectory;
  DsrcLink::TransferStats stats;
  ExchangeOutcome outcome = ExchangeOutcome::kDelivered;
  std::size_t fragments_expected = 0;
  std::size_t fragments_received = 0;
  std::size_t metres_expected = 0;  ///< metres the sender encoded
  std::size_t metres_received = 0;  ///< metres decoded on the receiver
  std::size_t rounds = 0;           ///< ARQ rounds actually run
  /// Static label describing a non-delivered outcome ("v2v.degraded.tail",
  /// "v2v.failed.no_header", ...); nullptr when delivered.
  const char* detail = nullptr;

  [[nodiscard]] bool usable() const noexcept {
    return outcome != ExchangeOutcome::kFailed;
  }
};

/// Orchestrates trajectory exchange between two vehicles over a DsrcLink:
/// full-context transfers for initial queries, incremental tail updates
/// once a SYN point is locked (the Sec. V-B scalability strategy).
///
/// The transfer is a real packet protocol: the encoded payload is WSM-
/// fragmented, each fragment rides the link's MAC model and then an
/// optional FaultyChannel (loss/reorder/duplication/corruption); fragments
/// that fail CRC validation are dropped and re-offered in bounded
/// selective-repeat rounds. Whatever fragments survive are decoded —
/// completely (kDelivered), as a contiguous salvaged region (kDegraded),
/// or not at all (kFailed). Exchange never throws on channel faults.
class ExchangeSession {
 public:
  explicit ExchangeSession(DsrcLink* link, std::uint32_t next_message_id = 1);
  ExchangeSession(DsrcLink* link, FaultyChannel* channel,
                  ExchangeConfig config = {}, std::uint32_t next_message_id = 1);

  /// Send a full journey context across the link.
  [[nodiscard]] ExchangeResult exchange_full(
      const core::ContextTrajectory& sender);

  /// Send only metres at or beyond `since_metre`; the receiver is expected
  /// to splice them onto its cached copy (returned trajectory holds just
  /// the tail).
  [[nodiscard]] ExchangeResult exchange_tail(
      const core::ContextTrajectory& sender, std::uint64_t since_metre);

  /// Total payload bytes moved in this session so far.
  [[nodiscard]] std::size_t total_bytes() const noexcept { return bytes_; }
  [[nodiscard]] const ExchangeConfig& config() const noexcept {
    return config_;
  }

 private:
  ExchangeResult run(std::vector<std::uint8_t> encoded, std::size_t channels);

  DsrcLink* link_;
  FaultyChannel* channel_;  ///< optional; nullptr = ideal channel
  ExchangeConfig config_;
  std::uint32_t next_message_id_;
  std::size_t bytes_ = 0;
};

}  // namespace rups::v2v
