// Exchange protocol under channel faults: bounded retries, session
// deadlines, the three delivery outcomes, salvage decoding, and the
// receiver-side splice/fallback logic that keeps estimation running on a
// degraded copy instead of throwing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/health.hpp"
#include "sim/campaign.hpp"
#include "sim/scenario.hpp"
#include "v2v/channel.hpp"
#include "v2v/codec.hpp"
#include "v2v/exchange.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"

namespace rups::v2v {
namespace {

core::ContextTrajectory sample_trajectory(std::size_t metres,
                                          std::size_t channels,
                                          std::size_t capacity = 0) {
  core::ContextTrajectory traj(channels, capacity ? capacity : metres + 4);
  for (std::size_t i = 0; i < metres; ++i) {
    core::PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if ((i + c) % 3 == 0) continue;
      const auto state = (i + c) % 3 == 1 ? core::ChannelState::kMeasured
                                          : core::ChannelState::kInterpolated;
      pv.set(c,
             static_cast<float>(-110.0 +
                                static_cast<double>((i * 7 + c * 13) % 60)),
             state);
    }
    traj.append(core::GeoSample{std::sin(i * 0.1) * 3.0,
                                100.0 + static_cast<double>(i) * 0.37},
                std::move(pv));
  }
  return traj;
}

TEST(ExchangeDegraded, CleanChannelDelivers) {
  const auto sender = sample_trajectory(300, 16);
  DsrcLink link(1);
  FaultyChannel channel(1, FaultConfig::clean());
  ExchangeSession session(&link, &channel);
  const auto result = session.exchange_full(sender);
  EXPECT_EQ(result.outcome, ExchangeOutcome::kDelivered);
  EXPECT_TRUE(result.usable());
  EXPECT_EQ(result.detail, nullptr);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.fragments_received, result.fragments_expected);
  EXPECT_EQ(result.trajectory.size(), sender.size());
  EXPECT_EQ(result.metres_received, result.metres_expected);
}

TEST(ExchangeDegraded, SaturatedLinkTerminatesAsFailed) {
  // Satellite regression: loss_rate = 1.0 used to spin transfer() forever.
  // Now every fragment exhausts its MAC budget, the session reports kFailed
  // and the accounting shows the bounded retries.
  const auto sender = sample_trajectory(200, 16);
  DsrcLink::Config cfg;
  cfg.loss_rate = 1.0;
  DsrcLink link(3, cfg);
  ExchangeSession session(&link, nullptr);
  const auto result = session.exchange_full(sender);
  EXPECT_EQ(result.outcome, ExchangeOutcome::kFailed);
  EXPECT_FALSE(result.usable());
  EXPECT_EQ(result.fragments_received, 0u);
  EXPECT_GT(result.fragments_expected, 0u);
  EXPECT_EQ(result.trajectory.size(), 0u);
  EXPECT_GT(result.stats.packets_lost, 0u);
  EXPECT_FALSE(result.stats.delivered);
  // MAC budget * rounds bounds the total number of transmissions.
  const std::size_t ceiling = result.fragments_expected *
                              link.config().max_transmissions *
                              session.config().max_rounds;
  EXPECT_LE(result.stats.transmissions, ceiling);
  EXPECT_GE(result.rounds, 1u);
  EXPECT_LE(result.rounds, session.config().max_rounds);
}

TEST(ExchangeDegraded, FullyLossyChannelAlsoFails) {
  const auto sender = sample_trajectory(150, 12);
  DsrcLink link(4);
  FaultyChannel channel(4, FaultConfig::iid(1.0));
  ExchangeSession session(&link, &channel);
  const auto result = session.exchange_full(sender);
  EXPECT_EQ(result.outcome, ExchangeOutcome::kFailed);
  EXPECT_EQ(result.fragments_received, 0u);
}

TEST(ExchangeDegraded, SaturatedTransferReportsFailure) {
  DsrcLink::Config cfg;
  cfg.loss_rate = 1.0;
  DsrcLink link(9, cfg);
  const auto stats = link.transfer(50'000);
  EXPECT_FALSE(stats.delivered);
  EXPECT_EQ(stats.packets_lost, stats.packets);
  EXPECT_EQ(stats.transmissions, stats.packets * cfg.max_transmissions);
  EXPECT_GT(stats.duration_s, 0.0);
}

TEST(ExchangeDegraded, BurstLossSalvagesContiguousRegion) {
  // Under heavy Gilbert-Elliott loss with a single round and no retries,
  // some fragments are missing; the session must fall back to the best
  // contiguous region instead of discarding everything.
  const auto sender = sample_trajectory(800, 16);
  bool saw_degraded = false;
  for (std::uint64_t seed = 1; seed <= 20 && !saw_degraded; ++seed) {
    DsrcLink link(seed);
    FaultConfig fc;
    fc.burst_loss = true;
    fc.p_good_to_bad = 0.05;
    fc.p_bad_to_good = 0.2;
    fc.loss_rate_bad = 0.97;
    FaultyChannel channel(seed, fc);
    ExchangeConfig ec;
    ec.max_rounds = 1;  // no selective repeat: force partial delivery
    ExchangeSession session(&link, &channel, ec);
    const auto result = session.exchange_full(sender);
    if (result.outcome != ExchangeOutcome::kDegraded) continue;
    saw_degraded = true;
    EXPECT_TRUE(result.usable());
    ASSERT_NE(result.detail, nullptr);
    EXPECT_GT(result.metres_received, 0u);
    EXPECT_LT(result.metres_received, result.metres_expected);
    EXPECT_LT(result.fragments_received, result.fragments_expected);

    // Salvaged metres must agree with a clean decode of the same metres.
    const auto clean = TrajectoryCodec::decode(TrajectoryCodec::encode(sender));
    const auto& got = result.trajectory;
    ASSERT_GE(got.first_metre(), clean.first_metre());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const std::size_t j =
          static_cast<std::size_t>(got.first_metre() - clean.first_metre()) + i;
      ASSERT_LT(j, clean.size());
      EXPECT_DOUBLE_EQ(got.distance_at(i),
                       static_cast<double>(clean.first_metre() + j));
      for (std::size_t c = 0; c < got.channels(); ++c) {
        EXPECT_EQ(got.power(i).state(c), clean.power(j).state(c));
        if (clean.power(j).usable(c)) {
          EXPECT_FLOAT_EQ(got.power(i).at(c), clean.power(j).at(c));
        }
      }
    }
  }
  EXPECT_TRUE(saw_degraded) << "no seed produced a salvageable region";
}

TEST(ExchangeDegraded, RetriesRecoverFromModerateLoss) {
  // The urban profile loses ~5% of packets in bursts; four selective-repeat
  // rounds should deliver the full context almost always.
  const auto sender = sample_trajectory(600, 16);
  std::size_t delivered = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DsrcLink link(seed);
    FaultyChannel channel(seed, FaultConfig::urban());
    ExchangeSession session(&link, &channel);
    const auto result = session.exchange_full(sender);
    if (result.outcome == ExchangeOutcome::kDelivered) {
      ++delivered;
      EXPECT_EQ(result.trajectory.size(), sender.size());
    }
    EXPECT_TRUE(result.usable());
  }
  EXPECT_GE(delivered, 8u);
}

TEST(ExchangeDegraded, TinyDeadlineDegradesInsteadOfBlocking) {
  const auto sender = sample_trajectory(1000, 24);
  DsrcLink link(6);
  FaultyChannel channel(6, FaultConfig::tunnel());
  ExchangeConfig ec;
  ec.deadline_s = 0.05;  // ~12 packets of link time
  ExchangeSession session(&link, &channel, ec);
  const auto result = session.exchange_full(sender);
  EXPECT_NE(result.outcome, ExchangeOutcome::kDelivered);
  EXPECT_LT(result.stats.duration_s, 0.5);
}

TEST(ExchangeDegraded, TailExchangeCarriesOnlyTailMetres) {
  const auto sender = sample_trajectory(400, 16);
  DsrcLink link(2);
  FaultyChannel channel(2, FaultConfig::clean());
  ExchangeSession session(&link, &channel);
  const auto result = session.exchange_tail(sender, 350);
  EXPECT_EQ(result.outcome, ExchangeOutcome::kDelivered);
  EXPECT_EQ(result.trajectory.size(), 50u);
  EXPECT_EQ(result.trajectory.first_metre(), 350u);
}

TEST(ExchangeDegraded, SpliceTailExtendsReceiverCopy) {
  const auto full = sample_trajectory(120, 8);
  core::ContextTrajectory receiver(8, 200);
  EXPECT_TRUE(receiver.splice_tail(full));
  EXPECT_EQ(receiver.size(), 120u);

  auto longer = sample_trajectory(150, 8);
  core::ContextTrajectory tail(8, 40);
  for (std::size_t i = 120; i < 150; ++i) {
    tail.append(longer.geo(i), longer.power(i));
  }
  // tail currently starts at metre 0; rebase it to 120.
  tail.rebase(120);
  EXPECT_TRUE(receiver.splice_tail(tail));
  EXPECT_EQ(receiver.size(), 150u);

  core::ContextTrajectory gap(8, 10);
  gap.append(longer.geo(0), longer.power(0));
  gap.rebase(400);
  EXPECT_FALSE(receiver.splice_tail(gap));  // hole — refuse to splice

  core::ContextTrajectory wrong_width(4, 10);
  EXPECT_FALSE(receiver.splice_tail(wrong_width));
}

TEST(ExchangeDegraded, ReceiverFallsBackToFullAfterFailure) {
  V2vReceiver receiver(16, 1024);
  EXPECT_FALSE(receiver.have_full);

  const auto sender = sample_trajectory(300, 16);
  DsrcLink link(1);
  FaultyChannel channel(1, FaultConfig::clean());
  ExchangeSession session(&link, &channel);

  const auto full = session.exchange_full(sender);
  EXPECT_TRUE(receiver.ingest(full, /*full_exchange=*/true));
  EXPECT_TRUE(receiver.have_full);
  EXPECT_EQ(receiver.synced_metre, 300u);
  EXPECT_EQ(receiver.received.size(), 300u);

  // A failed tail keeps the watermark: synced_metre does not advance, so
  // the next round re-requests exactly the missing metres as another tail.
  ExchangeResult failed = full;
  failed.outcome = ExchangeOutcome::kFailed;
  EXPECT_FALSE(receiver.ingest(failed, /*full_exchange=*/false));
  EXPECT_TRUE(receiver.have_full);
  EXPECT_EQ(receiver.synced_metre, 300u);
  EXPECT_EQ(receiver.received.size(), 300u);  // cached copy kept

  // A failed FULL transfer drops have_full so the next round retries it.
  EXPECT_FALSE(receiver.ingest(failed, /*full_exchange=*/true));
  EXPECT_FALSE(receiver.have_full);
  EXPECT_TRUE(receiver.ingest(full, /*full_exchange=*/true));
  EXPECT_TRUE(receiver.have_full);

  // A usable tail that does not connect to the cache (hole in the metre
  // range) must force a full re-transfer instead of splicing a gap.
  auto far_sender = sample_trajectory(500, 16);
  ExchangeResult gap_tail = session.exchange_tail(far_sender, 450);
  ASSERT_EQ(gap_tail.outcome, ExchangeOutcome::kDelivered);
  EXPECT_FALSE(receiver.ingest(gap_tail, /*full_exchange=*/false));
  EXPECT_FALSE(receiver.have_full);
}

TEST(ExchangeDegraded, HealthMonitorRaisesDeliveryAlert) {
  obs::HealthConfig cfg;
  cfg.max_delivery_failure_rate = 0.4;
  cfg.min_exchanges = 5;
  obs::HealthMonitor monitor(cfg);
  for (int i = 0; i < 6; ++i) monitor.on_exchange(false, false);
  const auto report = monitor.report();
  EXPECT_EQ(report.exchanges, 6u);
  EXPECT_DOUBLE_EQ(report.delivery_failure_rate, 1.0);
  bool fired = false;
  for (const auto& alert : report.alerts) {
    if (alert.rule == "delivery_failure") fired = true;
  }
  EXPECT_TRUE(fired);

  obs::HealthMonitor healthy(cfg);
  for (int i = 0; i < 20; ++i) healthy.on_exchange(true, i % 4 == 0);
  const auto ok = healthy.report();
  EXPECT_DOUBLE_EQ(ok.delivery_failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(ok.degraded_rate, 0.25);
  EXPECT_TRUE(ok.alerts.empty());
}

TEST(ExchangeDegraded, CampaignSurvivesTotalBlackout) {
  // End-to-end regression: a campaign over a loss_rate = 1.0 channel must
  // terminate (no infinite retransmission), produce zero RUPS estimates on
  // the v2v path, and report the failure through the health monitor.
  sim::Scenario scenario =
      sim::Scenario::two_car(7, road::EnvironmentType::kFourLaneUrban);
  scenario.route_length_m = 6'000.0;
  sim::ConvoySimulation sim(scenario);
  sim::CampaignConfig config;
  config.max_queries = 3;
  config.model_v2v_cost = true;
  config.fault = v2v::FaultConfig::iid(1.0);
  const auto result = sim::run_campaign(sim, config);
  ASSERT_EQ(result.queries.size(), 3u);
  for (const auto& q : result.queries) {
    EXPECT_FALSE(q.rups.has_value());
  }
  EXPECT_EQ(result.health.exchanges, 3u);
  EXPECT_DOUBLE_EQ(result.health.delivery_failure_rate, 1.0);
}

}  // namespace
}  // namespace rups::v2v
