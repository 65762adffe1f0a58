#include "v2v/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::v2v {

namespace {

/// Sec. VI-E communication cost: every exchanged trajectory message, its
/// encoded payload bytes, the WSM packet/retransmission volume, and the
/// delivery outcome split used by the fault-sweep gates.
struct ExchangeMetrics {
  obs::Counter& messages = obs::Registry::global().counter("v2v.messages");
  obs::Counter& bytes = obs::Registry::global().counter("v2v.payload_bytes");
  obs::Counter& packets = obs::Registry::global().counter("v2v.packets");
  obs::Counter& transmissions =
      obs::Registry::global().counter("v2v.transmissions");
  obs::Counter& transfer_us =
      obs::Registry::global().counter("v2v.transfer_time_us");
  obs::Histogram& exchange_us =
      obs::Registry::global().histogram("v2v.exchange_us");
  obs::Counter& delivered =
      obs::Registry::global().counter("v2v.delivery.delivered");
  obs::Counter& degraded =
      obs::Registry::global().counter("v2v.delivery.degraded");
  obs::Counter& failed =
      obs::Registry::global().counter("v2v.delivery.failed");
  obs::Counter& rounds = obs::Registry::global().counter("v2v.delivery.rounds");
  obs::Counter& fragments_lost =
      obs::Registry::global().counter("v2v.delivery.fragments_lost");
  obs::Counter& metres_salvaged =
      obs::Registry::global().counter("v2v.delivery.metres_salvaged");
  obs::Histogram& arq_round_us =
      obs::Registry::global().histogram("v2v.arq_round_us");
  /// Labeled view of the delivery split ("delivered"/"degraded"/"failed"):
  /// one family the windowed series and telemetry_report break down by.
  obs::CounterFamily& outcomes = obs::Registry::global().counter_family(
      "v2v.delivery_outcome", "outcome");
};

ExchangeMetrics& exchange_metrics() {
  static ExchangeMetrics m;
  return m;
}

constexpr std::size_t kCodecHeader = 4 + 2 + 4 + 8;

}  // namespace

const char* exchange_outcome_name(ExchangeOutcome o) noexcept {
  switch (o) {
    case ExchangeOutcome::kDelivered: return "delivered";
    case ExchangeOutcome::kDegraded: return "degraded";
    case ExchangeOutcome::kFailed: return "failed";
  }
  return "unknown";
}

ExchangeSession::ExchangeSession(DsrcLink* link, std::uint32_t next_message_id)
    : ExchangeSession(link, nullptr, ExchangeConfig{}, next_message_id) {}

ExchangeSession::ExchangeSession(DsrcLink* link, FaultyChannel* channel,
                                 ExchangeConfig config,
                                 std::uint32_t next_message_id)
    : link_(link),
      channel_(channel),
      config_(config),
      next_message_id_(next_message_id) {
  if (link_ == nullptr) {
    throw std::invalid_argument("ExchangeSession: null link");
  }
}

ExchangeResult ExchangeSession::run(std::vector<std::uint8_t> encoded,
                                    std::size_t channels) {
  ExchangeMetrics& metrics = exchange_metrics();
  obs::ObsTimer timer(&metrics.exchange_us, "v2v.exchange");

  const std::uint32_t msg_id = next_message_id_++;
  const std::size_t max_payload = link_->config().max_payload;
  const auto fragments = WsmFraming::fragment(encoded, msg_id, max_payload);
  const std::size_t total = fragments.size();
  const std::size_t mac_budget =
      std::max<std::size_t>(1, link_->config().max_transmissions);
  const std::size_t max_rounds = std::max<std::size_t>(1, config_.max_rounds);

  ExchangeResult result{core::ContextTrajectory(std::max<std::size_t>(1, channels), 1),
                        DsrcLink::TransferStats{}};
  result.stats.payload_bytes = encoded.size();
  result.stats.packets = total;
  result.fragments_expected = total;

  // Selective-repeat ARQ: each round re-offers the fragments the receiver
  // has not validated yet. The MAC layer (DsrcLink) retries each offered
  // fragment up to its own budget; the channel then applies packet faults.
  std::vector<char> received_flag(total, 0);
  std::vector<WsmPacket> received;
  received.reserve(total);
  std::size_t received_count = 0;
  double elapsed = 0.0;
  bool deadline_hit = false;

  auto accept = [&](std::vector<WsmPacket>&& arrivals) {
    for (WsmPacket& p : arrivals) {
      if (p.message_id != msg_id) continue;  // stale reordered packet
      if (!WsmFraming::validate(p) || p.total != total || p.seq >= total) {
        continue;  // truncated/corrupted — dropped, will be re-offered
      }
      if (received_flag[p.seq]) continue;  // duplicate
      received_flag[p.seq] = 1;
      ++received_count;
      received.push_back(std::move(p));
    }
  };

  std::size_t round = 0;
  while (received_count < total && round < max_rounds && !deadline_hit) {
    // Each selective-repeat round is its own child span of "v2v.exchange",
    // so retry storms are visible per round in the trace.
    obs::ObsTimer round_timer(&metrics.arq_round_us, "v2v.arq_round");
    if (round > 0) {
      const double backoff = std::min(
          config_.backoff_cap_s,
          config_.backoff_base_s *
              std::pow(config_.backoff_factor,
                       static_cast<double>(round - 1)));
      elapsed += backoff;
    }
    ++round;
    std::vector<WsmPacket> burst;
    for (std::size_t i = 0; i < total; ++i) {
      if (received_flag[i]) continue;
      if (config_.deadline_s > 0.0 && elapsed >= config_.deadline_s) {
        deadline_hit = true;
        break;
      }
      bool mac_delivered = false;
      for (std::size_t attempt = 0; attempt < mac_budget; ++attempt) {
        ++result.stats.transmissions;
        const DsrcLink::Attempt a = link_->attempt_packet();
        elapsed += a.elapsed_s;
        if (a.delivered) {
          mac_delivered = true;
          break;
        }
      }
      if (mac_delivered) burst.push_back(fragments[i]);
    }
    if (channel_ != nullptr) {
      accept(channel_->transmit(std::move(burst)));
      if (received_count < total) accept(channel_->flush());
    } else {
      accept(std::move(burst));
    }
  }
  result.stats.duration_s = elapsed;
  result.stats.packets_lost = total - received_count;
  result.stats.delivered = received_count == total;
  result.fragments_received = received_count;
  result.rounds = round;

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const char* fail_reason = nullptr;
  if (received_count == total) {
    const auto reassembled = WsmFraming::reassemble(received);
    if (reassembled.has_value()) {
      try {
        result.trajectory = TrajectoryCodec::decode(*reassembled);
        result.outcome = ExchangeOutcome::kDelivered;
        result.metres_expected = result.trajectory.size();
        result.metres_received = result.trajectory.size();
      } catch (const std::invalid_argument&) {
        fail_reason = "v2v.failed.decode";
      }
    } else {
      fail_reason = "v2v.failed.reassembly";
    }
  } else if (!received.empty() && received_flag[0]) {
    // Salvage: records are fixed-size, so the best contiguous run of
    // received fragments (header from fragment 0) decodes into whole
    // metres. Runs are scored by usable record bytes — equivalent to
    // complete-record count up to one record of rounding.
    std::size_t best_lo = 0, best_hi = 0, best_bytes = 0;
    std::size_t i = 0;
    while (i < total) {
      if (!received_flag[i]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < total && received_flag[j]) ++j;
      const std::size_t lo = i * max_payload;
      const std::size_t hi = std::min(encoded.size(), j * max_payload);
      // Penalize the header-bearing run by the header bytes it spends.
      const std::size_t usable =
          hi - lo - (lo < kCodecHeader ? std::min(kCodecHeader - lo, hi - lo) : 0);
      if (usable > best_bytes) {
        best_bytes = usable;
        best_lo = lo;
        best_hi = hi;
      }
      i = j;
    }
    auto salvaged =
        TrajectoryCodec::decode_region(encoded, best_lo, best_hi);
    if (salvaged.has_value()) {
      result.metres_expected = salvaged->metres_total;
      result.metres_received = salvaged->trajectory.size();
      result.outcome = ExchangeOutcome::kDegraded;
      result.detail = best_lo == 0 ? "v2v.degraded.prefix" : "v2v.degraded.tail";
      result.trajectory = std::move(salvaged->trajectory);
      metrics.metres_salvaged.inc(result.metres_received);
      recorder.record(obs::EventType::kExchangeDegraded, result.detail,
                      static_cast<double>(result.metres_received),
                      static_cast<double>(result.metres_expected),
                      static_cast<double>(total - received_count));
    } else {
      fail_reason = "v2v.failed.no_records";
    }
  } else {
    fail_reason =
        received.empty() ? "v2v.failed.nothing_received" : "v2v.failed.no_header";
  }
  if (fail_reason != nullptr) {
    result.outcome = ExchangeOutcome::kFailed;
    result.detail = fail_reason;
    recorder.record(obs::EventType::kExchangeFailed, fail_reason,
                    static_cast<double>(received_count),
                    static_cast<double>(total), elapsed);
    RUPS_LOG(kWarn) << "v2v exchange failed (" << fail_reason << "): "
                    << received_count << "/" << total << " fragments after "
                    << round << " rounds";
  }

  metrics.messages.inc();
  metrics.bytes.inc(result.stats.payload_bytes);
  metrics.packets.inc(result.stats.packets);
  metrics.transmissions.inc(result.stats.transmissions);
  metrics.transfer_us.inc(
      static_cast<std::uint64_t>(result.stats.duration_s * 1e6));
  metrics.rounds.inc(result.rounds);
  metrics.fragments_lost.inc(result.stats.packets_lost);
  switch (result.outcome) {
    case ExchangeOutcome::kDelivered: metrics.delivered.inc(); break;
    case ExchangeOutcome::kDegraded: metrics.degraded.inc(); break;
    case ExchangeOutcome::kFailed: metrics.failed.inc(); break;
  }
  metrics.outcomes.with(exchange_outcome_name(result.outcome)).inc();
  bytes_ += result.stats.payload_bytes;
  recorder.record(obs::EventType::kExchangeSent, "v2v.exchange",
                  static_cast<double>(result.stats.payload_bytes),
                  static_cast<double>(result.stats.packets),
                  result.stats.duration_s);
  recorder.record(obs::EventType::kExchangeReceived, "v2v.exchange",
                  static_cast<double>(result.stats.payload_bytes),
                  static_cast<double>(result.trajectory.size()));
  return result;
}

ExchangeResult ExchangeSession::exchange_full(
    const core::ContextTrajectory& sender) {
  return run(TrajectoryCodec::encode(sender), sender.channels());
}

ExchangeResult ExchangeSession::exchange_tail(
    const core::ContextTrajectory& sender, std::uint64_t since_metre) {
  return run(TrajectoryCodec::encode_tail(sender, since_metre),
             sender.channels());
}

}  // namespace rups::v2v
