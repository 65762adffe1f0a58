// Sec. V-A: computational cost of the SYN-point search. The paper reports
// O(m*w*k) complexity and ~1.2 ms average processing time for a 1000 m
// journey context with a 100 m x 45-channel checking window on an
// i7-2640M. This google-benchmark binary sweeps m (context length), w
// (window length) and k (channel count), plus the per-sample ingestion
// costs of the engine front-end.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/syn_seeker.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace {

using namespace rups;

/// Two related synthetic contexts of the given size (50 m true offset).
struct Pair {
  core::ContextTrajectory a;
  core::ContextTrajectory b;
};

Pair make_pair(std::size_t metres, std::size_t channels) {
  const util::HashNoise chan_noise(0xC0FFEE);
  const auto rssi = [&](std::int64_t road_m, std::size_t c) {
    const util::LatticeField1D f(util::hash_combine(17, c), 8.0, 2);
    return static_cast<float>(-95.0 + 40.0 * chan_noise.uniform(static_cast<std::int64_t>(c)) +
                              6.0 * f.value(static_cast<double>(road_m)));
  };
  Pair p{core::ContextTrajectory(channels, metres),
         core::ContextTrajectory(channels, metres)};
  util::Rng rng(5);
  for (std::size_t i = 0; i < metres; ++i) {
    core::PowerVector pa(channels), pb(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      pa.set(c, rssi(static_cast<std::int64_t>(i), c) +
                    static_cast<float>(rng.gaussian(0, 0.5)));
      pb.set(c, rssi(static_cast<std::int64_t>(i) + 50, c) +
                    static_cast<float>(rng.gaussian(0, 0.5)));
    }
    p.a.append(core::GeoSample{}, std::move(pa));
    p.b.append(core::GeoSample{}, std::move(pb));
  }
  return p;
}

core::SynConfig config_for(std::size_t window, std::size_t channels) {
  core::SynConfig cfg;
  cfg.window_m = window;
  cfg.top_channels = channels;
  cfg.coherency_threshold = 1.2;
  return cfg;
}

void BM_SynSearch_ContextLength(benchmark::State& state) {
  const auto metres = static_cast<std::size_t>(state.range(0));
  const auto pair = make_pair(metres, 115);
  const core::SynSeeker seeker(config_for(100, 45));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seeker.find_one(pair.a, pair.b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(metres));
}
BENCHMARK(BM_SynSearch_ContextLength)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Complexity(benchmark::oN);

void BM_SynSearch_WindowLength(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto pair = make_pair(1000, 115);
  const core::SynSeeker seeker(config_for(window, 45));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seeker.find_one(pair.a, pair.b));
  }
}
BENCHMARK(BM_SynSearch_WindowLength)->Arg(25)->Arg(50)->Arg(100);

void BM_SynSearch_ChannelCount(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto pair = make_pair(1000, 115);
  const core::SynSeeker seeker(config_for(100, k));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seeker.find_one(pair.a, pair.b));
  }
}
BENCHMARK(BM_SynSearch_ChannelCount)->Arg(10)->Arg(45)->Arg(115);

// The paper's reference configuration: m=1000, w=100, k=45 (~1.2 ms on the
// authors' laptop; absolute numbers depend on hardware, the point is the
// order of magnitude: a few ms per query).
void BM_SynSearch_PaperReference(benchmark::State& state) {
  const auto pair = make_pair(1000, 115);
  const core::SynSeeker seeker(config_for(100, 45));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seeker.find_one(pair.a, pair.b));
  }
}
BENCHMARK(BM_SynSearch_PaperReference);

// Coarse-to-fine search: same result (tested), ~stride x cheaper sweep.
void BM_SynSearch_CoarseToFine(benchmark::State& state) {
  const auto pair = make_pair(1000, 115);
  core::SynConfig cfg = config_for(100, 45);
  cfg.coarse_stride_m = static_cast<std::size_t>(state.range(0));
  const core::SynSeeker seeker(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seeker.find_one(pair.a, pair.b));
  }
}
BENCHMARK(BM_SynSearch_CoarseToFine)->Arg(0)->Arg(4)->Arg(8);

void BM_MultiSynQuery(benchmark::State& state) {
  const auto pair = make_pair(1000, 115);
  core::SynConfig cfg = config_for(85, 45);
  cfg.syn_points = static_cast<std::size_t>(state.range(0));
  cfg.syn_segment_spacing_m = 25;
  const core::SynSeeker seeker(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seeker.find(pair.a, pair.b));
  }
}
BENCHMARK(BM_MultiSynQuery)->Arg(1)->Arg(5);

// Front-end ingestion costs (Sec. V-A argues perception overhead is
// negligible; verify).
void BM_Engine_OnImu(benchmark::State& state) {
  core::RupsConfig cfg;
  cfg.channels = 115;
  cfg.assume_aligned_sensors = true;
  core::RupsEngine engine(cfg);
  engine.on_speed({0.0, 10.0});
  engine.on_speed({1.0, 10.0});
  sensors::ImuSample imu;
  imu.accel_mps2 = {0.0, 0.0, 9.80665};
  imu.mag_ut = {-30.0, 0.0, -35.0};
  double t = 2.0;
  for (auto _ : state) {
    imu.time_s = t;
    t += 0.005;
    engine.on_imu(imu);
  }
}
BENCHMARK(BM_Engine_OnImu);

void BM_Engine_OnRssi(benchmark::State& state) {
  core::RupsConfig cfg;
  cfg.channels = 115;
  cfg.assume_aligned_sensors = true;
  core::RupsEngine engine(cfg);
  sensors::RssiMeasurement m;
  m.rssi_dbm = -70.0;
  std::size_t c = 0;
  for (auto _ : state) {
    m.channel_index = c++ % 115;
    engine.on_rssi(m);
  }
}
BENCHMARK(BM_Engine_OnRssi);

}  // namespace

// BENCHMARK_MAIN plus an observability epilogue: the per-stage counters and
// timing histograms accumulated across every benchmark above are printed
// and dumped to bench_out/compute_cost_metrics.json — the measured baseline
// future perf PRs diff against (see BENCH_obs_baseline.json).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto path = rups::bench::write_metrics_json("compute_cost");
  rups::bench::print_stage_breakdown();
  std::printf("  metrics json: %s\n", path.c_str());
  return 0;
}
