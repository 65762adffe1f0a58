// Kernel-level microbenchmark of the lag-batched correlation kernel
// (Sec. V-A inner loop): one full sliding scan of a 1000 m context,
// scored through packed_correlation_batch_lanes at block widths
// B ∈ {1, 4, 8, 16} (1 = the per-position scalar path), swept over window
// length w ∈ {50, 100, 200}, channel count k ∈ {16, 45, 128} and
// masked-sample fraction ∈ {0, 0.1, 0.3}. The paper point m=1000 / w=100 /
// k=45 is additionally timed outside google-benchmark into deterministic
// kernel gauges + a batch-vs-scalar speedup figure; `--selfcheck` runs
// only that measurement and exits non-zero below a 2x floor (the ctest
// perf smoke gate).
//
// The emitted bench_out/syn_kernel_metrics.json becomes the baseline's
// kernel_metrics section: sweep-shape counters are exactly reproducible
// (diffed at 2%), per-position timing gauges are machine-dependent (diffed
// one-sided — only slowdowns fail).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/channel_select.hpp"
#include "core/packed.hpp"
#include "core/syn_seeker.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace {

using namespace rups;

constexpr std::size_t kContextMetres = 1000;
constexpr std::size_t kPaperWindow = 100;
constexpr std::size_t kPaperChannels = 45;
constexpr int kPaperMaskPct = 10;
constexpr double kSelfcheckFloor = 2.0;

/// One prepared scan: a fixed checking window and a full sliding context,
/// packed, with identity row maps — exactly what SynSeeker::slide streams.
struct Scan {
  core::SubsetPack fixed_pack;
  core::SubsetPack slide_pack;
  std::vector<std::size_t> rows;
  std::size_t window = 0;
  std::size_t positions = 0;
  core::TrajectoryCorrelationConfig config{};

  [[nodiscard]] core::PackedView fixed() const {
    return {fixed_pack.span(), rows};
  }
  [[nodiscard]] core::PackedView sliding() const {
    return {slide_pack.span(), rows};
  }
};

core::ContextTrajectory synth(std::size_t metres, std::size_t channels,
                              std::int64_t road_offset, int mask_pct,
                              std::uint64_t seed) {
  const util::HashNoise chan_noise(0xC0FFEE);
  core::ContextTrajectory t(channels, metres);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < metres; ++i) {
    core::PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() * 100.0 < static_cast<double>(mask_pct)) continue;
      const util::LatticeField1D f(util::hash_combine(17, c), 8.0, 2);
      pv.set(c, static_cast<float>(
                    -95.0 +
                    40.0 * chan_noise.uniform(static_cast<std::int64_t>(c)) +
                    6.0 * f.value(static_cast<double>(
                              road_offset + static_cast<std::int64_t>(i))) +
                    rng.gaussian(0, 0.5)));
    }
    t.append(core::GeoSample{}, std::move(pv));
  }
  return t;
}

Scan make_scan(std::size_t window, std::size_t channels, int mask_pct,
               std::size_t metres = kContextMetres) {
  Scan s;
  s.window = window;
  s.positions = metres - window + 1;
  s.rows.resize(channels);
  std::iota(s.rows.begin(), s.rows.end(), std::size_t{0});
  // The fixed window sits 50 road-metres into the sliding context, so the
  // scan crosses a genuine correlation peak like a real seek does.
  const auto fixed_t = synth(window, channels, 50, mask_pct, 7);
  const auto slide_t = synth(metres, channels, 0, mask_pct, 8);
  s.fixed_pack = core::SubsetPack(fixed_t, s.rows, 0, window);
  s.slide_pack = core::SubsetPack(slide_t, s.rows, 0, metres);
  return s;
}

void BM_KernelScan(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto channels = static_cast<std::size_t>(state.range(1));
  const auto lanes = static_cast<std::size_t>(state.range(2));
  const auto mask_pct = static_cast<int>(state.range(3));
  const Scan s = make_scan(window, channels, mask_pct);
  std::vector<double> scores(s.positions, 0.0);
  for (auto _ : state) {
    core::packed_correlation_batch_lanes(lanes, s.fixed(), 0, s.sliding(), 0,
                                         s.positions, s.window, s.config,
                                         scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.positions));
}
BENCHMARK(BM_KernelScan)
    ->ArgNames({"w", "k", "B", "maskpct"})
    ->ArgsProduct({{50, 100, 200}, {16, 45, 128}, {1, 4, 8, 16}, {0, 10, 30}});

/// One SynCache tracking band: `len` positions ending at the last position
/// of a 160 m, 45-channel context, w = 85 (stream_urban's shape). Ranges of
/// 2-15 positions run as one anchored 16-lane block, a lone position as a
/// single-position block (DESIGN §11). Printed only: no baseline row.
void BM_KernelBand(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const Scan s = make_scan(85, kPaperChannels, 0, 160);
  std::vector<double> scores(len, 0.0);
  for (auto _ : state) {
    core::packed_correlation_batch(s.fixed(), 0, s.sliding(),
                                   s.positions - len, len, s.window, s.config,
                                   scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_KernelBand)->ArgName("len")->Arg(1)->Arg(2)->Arg(5)->Arg(8)
    ->Arg(14)->Arg(16)->Arg(25);

/// One top-45 ranking of the newest w = 85 window of a 160 m context with
/// 10% of slots missing: `ch` channels, ranked with (`pack` 1) or without
/// an in-sync pack. At 45 channels with a pack top-45 keeps every
/// qualified channel, so the ranking counts coverage alone from the pack's
/// validity rows; without a pack, and at 115 channels, it ranks by window
/// means. Printed only: no baseline row.
void BM_RankWindow(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const bool use_pack = state.range(1) != 0;
  const core::ContextTrajectory t = synth(160, channels, 0, kPaperMaskPct, 9);
  core::PackedContext pack;
  pack.sync(t);
  core::ChannelSelectScratch scratch;
  std::vector<std::size_t> out;
  for (auto _ : state) {
    core::select_top_channels_into(t, t.size() - 85, 85, kPaperChannels,
                                   scratch, out, core::kDefaultMinCoverage,
                                   use_pack ? &pack : nullptr);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RankWindow)
    ->ArgNames({"ch", "pack"})
    ->Args({45, 1})
    ->Args({45, 0})
    ->Args({115, 0});

/// Wall-time of `reps` full scans at the given lane width, in ns/position.
double measure_ns_per_position(const Scan& s, std::size_t lanes,
                               std::size_t reps) {
  std::vector<double> scores(s.positions, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    core::packed_correlation_batch_lanes(lanes, s.fixed(), 0, s.sliding(), 0,
                                         s.positions, s.window, s.config,
                                         scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return seconds * 1e9 / static_cast<double>(reps) /
         static_cast<double>(s.positions);
}

/// Paper-point (m=1000, w=100, k=45, 10% masked) batch-vs-scalar figure,
/// recorded as kernel.* gauges. Returns the speedup.
double record_paper_point() {
  const Scan s = make_scan(kPaperWindow, kPaperChannels, kPaperMaskPct);
  const std::size_t reps = bench::scaled(30);
  // Warm-up pass so first-touch and ifunc resolution stay out of the timing.
  measure_ns_per_position(s, core::kLagBlock, 1);
  const double scalar_ns = measure_ns_per_position(s, 1, reps);
  const double batch_ns = measure_ns_per_position(s, core::kLagBlock, reps);
  const double speedup = scalar_ns / batch_ns;
  auto& reg = obs::Registry::global();
  reg.gauge("kernel.paper.scalar_ns_per_pos").set(scalar_ns);
  reg.gauge("kernel.paper.batch_ns_per_pos").set(batch_ns);
  reg.gauge("kernel.paper.speedup").set(speedup);
  std::printf(
      "  paper point m=%zu w=%zu k=%zu mask=%d%%: scalar %.0f ns/pos, "
      "batch<%zu> %.0f ns/pos, speedup %.2fx\n",
      kContextMetres, kPaperWindow, kPaperChannels, kPaperMaskPct, scalar_ns,
      core::kLagBlock, batch_ns, speedup);
  return speedup;
}

/// Sweep-shape counters: functions of the registered benchmark grid only,
/// so the committed baseline pins them exactly (a 2% counter diff catches
/// accidental sweep edits; timings never reach these).
void record_sweep_counters() {
  auto& reg = obs::Registry::global();
  std::uint64_t configs = 0;
  std::uint64_t positions = 0;
  std::uint64_t blocks = 0;
  for (const std::size_t w : {50, 100, 200}) {
    for (const std::size_t k : {16, 45, 128}) {
      (void)k;
      for (const std::size_t lanes : {1, 4, 8, 16}) {
        for (const int mask : {0, 10, 30}) {
          (void)mask;
          const std::uint64_t pos = kContextMetres - w + 1;
          ++configs;
          positions += pos;
          if (lanes == 1) {
            blocks += pos;
          } else {
            blocks += pos / lanes + (pos % lanes != 0 ? 1 : 0);
          }
        }
      }
    }
  }
  reg.counter("kernel.sweep_configs").inc(configs);
  reg.counter("kernel.sweep_positions").inc(positions);
  reg.counter("kernel.sweep_lane_blocks").inc(blocks);
}

}  // namespace

int main(int argc, char** argv) {
  bool selfcheck = false;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--selfcheck") == 0) {
      selfcheck = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  if (selfcheck) {
    // ctest perf smoke gate: the batched kernel must beat the per-position
    // scalar path by at least kSelfcheckFloor at the paper configuration.
    const double speedup = record_paper_point();
    const bool ok = speedup >= kSelfcheckFloor;
    std::printf("kernel selfcheck (floor %.1fx): %s\n", kSelfcheckFloor,
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  record_sweep_counters();
  record_paper_point();
  const auto path = rups::bench::write_metrics_json("syn_kernel");
  rups::bench::print_stage_breakdown();
  std::printf("  metrics json: %s\n", path.c_str());
  return 0;
}
