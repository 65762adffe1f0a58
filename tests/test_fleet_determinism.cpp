#include "core/fleet.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/resolver.hpp"
#include "core/syn_seeker.hpp"
#include "obs/metrics.hpp"
#include "support/engine_drive.hpp"
#include "support/road_field.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Differential tests for the fleet-scale batch layer: whatever combination
// of thread pool and SYN cache is in play, estimate_batch must return
// exactly what N independent serial SynSeeker+aggregate runs return. No
// tolerance — the batch layer shares the packed kernel with the serial
// path, so any drift is a real bug, not rounding.

namespace rups::core {
namespace {

constexpr std::size_t kChannels = 30;
constexpr std::size_t kCapacity = 400;

using test::road_rssi;

/// One vehicle's pre-generated drive: context plus the future metres that
/// each round appends, so every engine mode replays identical inputs.
struct VehicleLog {
  std::int64_t road_start = 0;
  std::vector<std::vector<float>> rssi;  // [metre][channel]
};

VehicleLog make_log(std::uint64_t seed, std::size_t vehicle,
                    std::size_t metres) {
  VehicleLog log;
  log.road_start =
      vehicle == 0 ? 0 : static_cast<std::int64_t>(15 + 20 * (vehicle - 1));
  util::Rng rng(seed * 100 + vehicle);
  log.rssi.assign(metres, std::vector<float>(kChannels));
  for (std::size_t i = 0; i < metres; ++i) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      log.rssi[i][c] =
          road_rssi(seed, log.road_start + static_cast<std::int64_t>(i), c) +
          static_cast<float>(rng.gaussian(0.0, 0.5));
    }
  }
  return log;
}

void append_metres(ContextTrajectory& t, const VehicleLog& log,
                   std::size_t from, std::size_t count) {
  for (std::size_t i = from; i < from + count; ++i) {
    PowerVector pv(kChannels);
    for (std::size_t c = 0; c < kChannels; ++c) pv.set(c, log.rssi[i][c]);
    t.append(GeoSample{}, std::move(pv));
  }
}

RupsConfig fleet_rups_config() {
  RupsConfig cfg;
  cfg.channels = kChannels;
  cfg.context_capacity_m = kCapacity;
  cfg.syn.window_m = 40;
  cfg.syn.top_channels = 20;
  cfg.syn.coherency_threshold = 1.2;
  cfg.syn.syn_points = 2;
  cfg.syn.syn_segment_spacing_m = 25;
  return cfg;
}

struct RoundLog {
  std::vector<std::vector<FleetEngine::NeighbourResult>> rounds;
};

/// Replay the fixed drive through a FleetEngine in the given mode.
RoundLog run_fleet(const std::vector<VehicleLog>& logs, std::size_t fleet_n,
                   std::size_t initial_m, std::size_t rounds,
                   std::size_t step_m, bool use_cache,
                   util::ThreadPool* pool) {
  FleetConfig cfg;
  cfg.rups = fleet_rups_config();
  cfg.use_cache = use_cache;
  FleetEngine engine(cfg);

  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }
  std::vector<const ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 1; v < fleet_n + 1; ++v) {
    neighbours.push_back(&contexts[v]);
    ids.push_back(100 + v);
  }

  RoundLog out;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    out.rounds.push_back(engine.estimate_batch(contexts[0], neighbours, ids,
                                               pool));
  }
  return out;
}

/// Reference: per-neighbour serial estimate path (plain SynSeeker + the
/// same aggregation), no packs, no cache, no batch.
RoundLog run_reference(const std::vector<VehicleLog>& logs,
                       std::size_t fleet_n, std::size_t initial_m,
                       std::size_t rounds, std::size_t step_m) {
  const RupsConfig rups = fleet_rups_config();
  const SynSeeker seeker(rups.syn);

  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }

  RoundLog out;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    std::vector<FleetEngine::NeighbourResult> results;
    for (std::size_t v = 1; v < fleet_n + 1; ++v) {
      FleetEngine::NeighbourResult r;
      r.syn_points = seeker.find(contexts[0], contexts[v]);
      r.estimate = aggregate_estimates(contexts[0], contexts[v], r.syn_points,
                                       rups.aggregation);
      results.push_back(std::move(r));
    }
    out.rounds.push_back(std::move(results));
  }
  return out;
}

void expect_identical(const RoundLog& a, const RoundLog& b,
                      const char* label) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    ASSERT_EQ(a.rounds[r].size(), b.rounds[r].size()) << label;
    for (std::size_t i = 0; i < a.rounds[r].size(); ++i) {
      const auto& x = a.rounds[r][i];
      const auto& y = b.rounds[r][i];
      ASSERT_EQ(x.estimate.has_value(), y.estimate.has_value())
          << label << " round " << r << " neighbour " << i;
      if (x.estimate.has_value()) {
        EXPECT_EQ(x.estimate->distance_m, y.estimate->distance_m)
            << label << " round " << r << " neighbour " << i;
        EXPECT_EQ(x.estimate->confidence, y.estimate->confidence) << label;
        EXPECT_EQ(x.estimate->syn_count, y.estimate->syn_count) << label;
      }
      ASSERT_EQ(x.syn_points.size(), y.syn_points.size()) << label;
      for (std::size_t s = 0; s < x.syn_points.size(); ++s) {
        EXPECT_EQ(x.syn_points[s].index_a, y.syn_points[s].index_a) << label;
        EXPECT_EQ(x.syn_points[s].index_b, y.syn_points[s].index_b) << label;
        EXPECT_EQ(x.syn_points[s].window_m, y.syn_points[s].window_m)
            << label;
        EXPECT_EQ(x.syn_points[s].correlation, y.syn_points[s].correlation)
            << label;
      }
    }
  }
}

class FleetDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetDeterminism, AllModesMatchSerialReferenceExactly) {
  const std::uint64_t seed = GetParam();
  const std::size_t fleet_n = 4;
  const std::size_t initial_m = 150;
  const std::size_t rounds = 6;
  const std::size_t step_m = 4;
  const std::size_t total_m = initial_m + rounds * step_m;

  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    logs.push_back(make_log(seed, v, total_m));
  }

  const RoundLog reference =
      run_reference(logs, fleet_n, initial_m, rounds, step_m);
  // At least some rounds must actually find estimates or the test is
  // vacuous.
  std::size_t estimates = 0;
  for (const auto& round : reference.rounds) {
    for (const auto& r : round) {
      if (r.estimate.has_value()) ++estimates;
    }
  }
  ASSERT_GT(estimates, 0u);

  util::ThreadPool pool(2);
  const RoundLog serial_cold = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/false, nullptr);
  const RoundLog serial_warm = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/true, nullptr);
  const RoundLog pooled_cold = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/false, &pool);
  const RoundLog pooled_warm = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/true, &pool);

  expect_identical(serial_cold, reference, "serial-cold vs reference");
  expect_identical(serial_warm, reference, "serial-warm vs reference");
  expect_identical(pooled_cold, reference, "pooled-cold vs reference");
  expect_identical(pooled_warm, reference, "pooled-warm vs reference");
}

/// Replay rounds where vehicle v starts with initial[v] metres (vehicle 0
/// is the ego), through a FleetEngine or, with `reference`, through plain
/// per-neighbour SynSeeker searches. A neighbour shorter than window_m
/// shrinks the plan's window below the ego's once-per-batch ranking, so
/// those plans rank the ego in place.
RoundLog run_uneven(const std::vector<VehicleLog>& logs,
                    const std::vector<std::size_t>& initial,
                    std::size_t rounds, std::size_t step_m,
                    util::ThreadPool* pool, bool reference) {
  FleetConfig cfg;
  cfg.rups = fleet_rups_config();
  FleetEngine engine(cfg);
  const SynSeeker seeker(cfg.rups.syn);
  std::vector<ContextTrajectory> contexts;
  contexts.reserve(logs.size());
  std::vector<const ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 0; v < logs.size(); ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial[v]);
    if (v == 0) continue;
    neighbours.push_back(&contexts[v]);
    ids.push_back(100 + v);
  }
  RoundLog out;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      for (std::size_t v = 0; v < logs.size(); ++v) {
        append_metres(contexts[v], logs[v],
                      initial[v] + (round - 1) * step_m, step_m);
      }
    }
    if (!reference) {
      out.rounds.push_back(
          engine.estimate_batch(contexts[0], neighbours, ids, pool));
      continue;
    }
    std::vector<FleetEngine::NeighbourResult> results;
    for (const ContextTrajectory* nb : neighbours) {
      FleetEngine::NeighbourResult r;
      r.syn_points = seeker.find(contexts[0], *nb);
      r.estimate = aggregate_estimates(contexts[0], *nb, r.syn_points,
                                       cfg.rups.aggregation);
      results.push_back(std::move(r));
    }
    out.rounds.push_back(std::move(results));
  }
  return out;
}

TEST_P(FleetDeterminism, ShortNeighboursShrinkingThePlanMatchSerialAndPooled) {
  const std::uint64_t seed = GetParam();
  const std::vector<std::size_t> initial = {150, 14, 22, 31, 48, 60, 150};
  const std::size_t rounds = 8;
  const std::size_t step_m = 3;
  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < initial.size(); ++v) {
    logs.push_back(make_log(seed, v, initial[v] + rounds * step_m));
  }
  const RoundLog reference =
      run_uneven(logs, initial, rounds, step_m, nullptr, true);
  std::size_t shrunk = 0;
  for (const auto& round : reference.rounds) {
    for (const auto& r : round) {
      for (const SynPoint& p : r.syn_points) {
        if (p.window_m < fleet_rups_config().syn.window_m) ++shrunk;
      }
    }
  }
  ASSERT_GT(shrunk, 0u) << "no plan shrank its window: the test is vacuous";

  util::ThreadPool pool(3);
  expect_identical(run_uneven(logs, initial, rounds, step_m, nullptr, false),
                   reference, "serial vs reference");
  expect_identical(run_uneven(logs, initial, rounds, step_m, &pool, false),
                   reference, "pooled vs reference");
}

/// Replay the drive with the cache on at the given kernel precision and
/// return both the per-round results and the aggregated cache stats.
std::pair<RoundLog, SynCache::Stats> run_fleet_at_precision(
    const std::vector<VehicleLog>& logs, std::size_t fleet_n,
    std::size_t initial_m, std::size_t rounds, std::size_t step_m,
    KernelPrecision precision) {
  FleetConfig cfg;
  cfg.rups = fleet_rups_config();
  cfg.rups.syn.precision = precision;
  cfg.use_cache = true;
  FleetEngine engine(cfg);

  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }
  std::vector<const ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 1; v < fleet_n + 1; ++v) {
    neighbours.push_back(&contexts[v]);
    ids.push_back(100 + v);
  }

  RoundLog out;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    out.rounds.push_back(
        engine.estimate_batch(contexts[0], neighbours, ids, nullptr));
  }
  return {std::move(out), engine.cache_stats()};
}

/// ISSUE 8 satellite: the quantized kernel's bounded score error must not
/// leak into the cache's CONTROL FLOW. Hit/miss/fallback/invalidation
/// counts and every per-round alignment decision (estimate presence, SYN
/// indices, windows) have to be identical float-vs-int16 on the same
/// drives; only the correlation VALUES may differ, and only within the
/// quantization bound.
TEST_P(FleetDeterminism, CacheDecisionsMatchFloatVsInt16) {
  const std::uint64_t seed = GetParam();
  const std::size_t fleet_n = 4;
  const std::size_t initial_m = 150;
  const std::size_t rounds = 6;
  const std::size_t step_m = 4;

  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    logs.push_back(make_log(seed, v, initial_m + rounds * step_m));
  }

  const auto [float_log, float_stats] = run_fleet_at_precision(
      logs, fleet_n, initial_m, rounds, step_m, KernelPrecision::kFloat32);
  const auto [quant_log, quant_stats] = run_fleet_at_precision(
      logs, fleet_n, initial_m, rounds, step_m, KernelPrecision::kInt16);

  EXPECT_EQ(float_stats.queries, quant_stats.queries);
  EXPECT_EQ(float_stats.tracking_hits, quant_stats.tracking_hits);
  EXPECT_EQ(float_stats.tracking_misses, quant_stats.tracking_misses);
  EXPECT_EQ(float_stats.full_searches, quant_stats.full_searches);
  EXPECT_EQ(float_stats.invalidations, quant_stats.invalidations);
  // The drive must actually exercise the tracker or the parity is vacuous.
  ASSERT_GT(float_stats.tracking_hits, 0u);

  ASSERT_EQ(float_log.rounds.size(), quant_log.rounds.size());
  for (std::size_t r = 0; r < float_log.rounds.size(); ++r) {
    ASSERT_EQ(float_log.rounds[r].size(), quant_log.rounds[r].size());
    for (std::size_t i = 0; i < float_log.rounds[r].size(); ++i) {
      const auto& x = float_log.rounds[r][i];
      const auto& y = quant_log.rounds[r][i];
      ASSERT_EQ(x.estimate.has_value(), y.estimate.has_value())
          << "round " << r << " neighbour " << i;
      ASSERT_EQ(x.syn_points.size(), y.syn_points.size())
          << "round " << r << " neighbour " << i;
      for (std::size_t s = 0; s < x.syn_points.size(); ++s) {
        EXPECT_EQ(x.syn_points[s].index_a, y.syn_points[s].index_a)
            << "round " << r << " neighbour " << i;
        EXPECT_EQ(x.syn_points[s].index_b, y.syn_points[s].index_b)
            << "round " << r << " neighbour " << i;
        EXPECT_EQ(x.syn_points[s].window_m, y.syn_points[s].window_m)
            << "round " << r << " neighbour " << i;
        EXPECT_NEAR(x.syn_points[s].correlation, y.syn_points[s].correlation,
                    2e-2)
            << "round " << r << " neighbour " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDeterminism,
                         ::testing::Values(11ULL, 29ULL, 73ULL));

TEST(FleetEngine, WarmCacheActuallyTracks) {
  const std::uint64_t seed = 11;
  const std::size_t fleet_n = 3;
  const std::size_t initial_m = 150;
  const std::size_t rounds = 6;
  const std::size_t step_m = 4;
  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    logs.push_back(make_log(seed, v, initial_m + rounds * step_m));
  }

  FleetConfig cfg;
  cfg.rups = fleet_rups_config();
  cfg.use_cache = true;
  FleetEngine engine(cfg);
  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }
  std::vector<const ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 1; v < fleet_n + 1; ++v) {
    neighbours.push_back(&contexts[v]);
    ids.push_back(v);
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    (void)engine.estimate_batch(contexts[0], neighbours, ids, nullptr);
  }
  const SynCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(engine.shard_count(), fleet_n);
  EXPECT_GT(stats.tracking_hits, 0u);
  EXPECT_GT(stats.queries, 0u);
  // Steady state: after the first (cold) round the tracker should carry
  // most queries.
  EXPECT_GT(stats.tracking_hits, stats.tracking_misses);
}

TEST(FleetEngine, RejectsDuplicateIdsAndSizeMismatch) {
  // A rejected batch must not count as a batch nor create SynCache shards.
  FleetEngine engine;
  ContextTrajectory ego(kChannels, kCapacity);
  ContextTrajectory n1(kChannels, kCapacity);
  const std::vector<const ContextTrajectory*> two = {&n1, &n1};
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t batches = reg.counter("fleet.batches").value();
  const std::uint64_t queries = reg.counter("fleet.queries").value();
  const std::vector<std::uint64_t> dup_ids = {7, 7};
  EXPECT_THROW((void)engine.estimate_batch(ego, two, dup_ids, nullptr),
               std::invalid_argument);
  const std::vector<std::uint64_t> one_id = {5};
  EXPECT_THROW((void)engine.estimate_batch(ego, two, one_id, nullptr),
               std::invalid_argument);
  const std::vector<std::uint64_t> two_ids = {5, 6};
  const std::vector<const PackedContext*> one_pack = {nullptr};
  std::vector<FleetEngine::NeighbourResult> results;
  EXPECT_THROW(engine.estimate_batch_into(ego, two, two_ids, nullptr, results,
                                          nullptr, one_pack),
               std::invalid_argument);
  EXPECT_EQ(engine.shard_count(), 0u);
  EXPECT_EQ(reg.counter("fleet.batches").value(), batches);
  EXPECT_EQ(reg.counter("fleet.queries").value(), queries);
}

TEST(SynCache, RejectsAnEgoPackOutOfSync) {
  // The ego pack is always the caller's: a missing or stale one is refused
  // before the cache counts a query.
  SynCache cache;
  ContextTrajectory ego(kChannels, kCapacity);
  const ContextTrajectory neighbour(kChannels, kCapacity);
  const VehicleLog log = make_log(1, 0, 41);
  append_metres(ego, log, 0, 40);
  PackedContext pack;
  pack.sync(ego);
  append_metres(ego, log, 40, 1);
  std::vector<SynPoint> out;
  EXPECT_THROW(cache.find_into(ego, neighbour, &pack, nullptr, out),
               std::invalid_argument);
  EXPECT_THROW(cache.find_into(ego, neighbour, nullptr, nullptr, out),
               std::invalid_argument);
  EXPECT_EQ(cache.stats().queries, 0u);
}

TEST(FleetEngine, MaintainedPacksFollowLongInterpolationGaps) {
  // Engine.MaintainedPackFollowsLongInterpolationGaps' drive through
  // FleetEngine: the gappy vehicle's channels 0-11 fall silent on road
  // metres 100-280 and the binder back-fills the whole stretch when they
  // return, far past the default re-pack suffix. The gappy context is the
  // ego of one fleet (its engine-owned ego pack) and the neighbour of the
  // other (a shard's neighbour pack); with the cache off every batch must
  // score exactly like a fresh search over the unpacked contexts.
  RupsConfig cfg = test::engine_test_config();
  cfg.binder.max_interpolation_gap_m = 200;
  RupsEngine gappy(cfg);
  RupsEngine parked(cfg);
  test::drive_engine(parked, 0.0, 200.0, 10.0, 12);
  FleetConfig fleet_cfg;
  fleet_cfg.rups = cfg;
  fleet_cfg.use_cache = false;
  FleetEngine as_ego(fleet_cfg);
  FleetEngine as_neighbour(fleet_cfg);
  const SynSeeker reference(cfg.syn);
  const std::vector<const ContextTrajectory*> parked_ctx = {&parked.context()};
  const std::vector<const ContextTrajectory*> gappy_ctx = {&gappy.context()};
  const std::vector<std::uint64_t> ids = {1};
  std::size_t compared = 0;
  const auto expect_same = [&](const std::vector<SynPoint>& got,
                               const std::vector<SynPoint>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index_a, want[i].index_a);
      EXPECT_EQ(got[i].index_b, want[i].index_b);
      EXPECT_EQ(got[i].correlation, want[i].correlation);
    }
    compared += got.size();
  };
  test::drive_engine(
      gappy, 0.0, 400.0, 10.0, 11,
      [](double road_m, std::size_t ch) {
        return ch < 12 && road_m >= 100.0 && road_m < 280.0;
      },
      [&] {
        expect_same(
            as_ego.estimate_batch(gappy.context(), parked_ctx, ids)[0]
                .syn_points,
            reference.find(gappy.context(), parked.context()));
        expect_same(
            as_neighbour.estimate_batch(parked.context(), gappy_ctx, ids)[0]
                .syn_points,
            reference.find(parked.context(), gappy.context()));
      });
  EXPECT_GT(compared, 20u);
}

}  // namespace
}  // namespace rups::core
