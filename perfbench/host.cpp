// Host block and paper-point yardstick printed ahead of every run, so a
// pooled figure is never read without the machine it came from.

#include <cpuid.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common.hpp"
#include "core/packed.hpp"
#include "core/syn_seeker.hpp"
#include "sim/service_sim.hpp"

namespace perfbench {
namespace {

/// Processor brand string from the extended CPUID leaves.
std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  const std::string model(text);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

/// The clone the kernels' target_clones("default", "avx2",
/// "arch=x86-64-v4") resolver picks on this CPU.
const char* kernel_isa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512cd") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return "x86-64-v4";
  }
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
}

/// A dependent xorshift chain the compiler cannot fold or vectorize.
std::uint64_t xorshift_chain(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1u;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Effective parallelism of `threads` concurrent chains: threads x the
/// single-thread time over the concurrent wall time (1.0 = fully serial).
double parallelism_probe(std::size_t threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const double s0 = now_s();
  sink += xorshift_chain(kIterations, 1);
  const double single = now_s() - s0;
  const double p0 = now_s();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back(
          [&sink, t] { sink += xorshift_chain(kIterations, t + 2); });
    }
  }
  const double parallel = now_s() - p0;
  return parallel > 0.0 ? static_cast<double>(threads) * single / parallel
                        : 0.0;
}

}  // namespace

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void report_host(const Report& report, std::size_t probe_threads) {
  probe_threads = std::max<std::size_t>(1, probe_threads);
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(parallelism_probe(probe_threads));
  char text[512];
  std::snprintf(text, sizeof text,
                "host: nproc=%zu cpu=\"%s\" compiler=\"gcc %s\" build=%s "
                "kernel_isa=%s parallelism_probe(%zu threads)=%.2fx "
                "[%.2f %.2f %.2f]",
                host_cpus(), cpu_model().c_str(), __VERSION__,
                PERFBENCH_BUILD_TYPE, kernel_isa(), probe_threads,
                median(probes), probes[0], probes[1], probes[2]);
  report.line(text);
}

void report_paper_point(const Report& report, std::uint64_t seed) {
  // Two related 1000 m x 115-channel contexts from the hashed city field:
  // the second car drives the same road 40 m behind the first.
  rups::sim::CityFleetConfig city;
  city.vehicles = 2;
  city.channels = 115;
  city.context_capacity_m = 1000;
  city.spacing_m = 40.0;
  city.min_advance_m = city.max_advance_m = 10;
  city.seed = seed ^ 0x9A9E7ULL;
  rups::sim::CityFleet fleet(city);
  rups::core::ContextTrajectory a(city.channels, city.context_capacity_m);
  rups::core::ContextTrajectory b(city.channels, city.context_capacity_m);
  while (a.size() < city.context_capacity_m) {
    fleet.advance_round();
    for (const auto& s : fleet.samples(0)) b.append(s.geo, s.power);
    for (const auto& s : fleet.samples(1)) a.append(s.geo, s.power);
  }
  rups::core::SynConfig syn;
  syn.window_m = 100;
  syn.top_channels = 45;
  const rups::core::SynSeeker seeker(syn);
  rups::core::PackedContext pack_a, pack_b;
  pack_a.sync(a);
  pack_b.sync(b);
  std::vector<double> repack_ms, packed_ms;
  std::size_t found = 0;
  for (int i = 0; i < 7; ++i) {
    double t0 = now_s();
    found += seeker.find(a, b, &pack_a, nullptr).size();
    repack_ms.push_back((now_s() - t0) * 1e3);
    t0 = now_s();
    found += seeker.find(a, b, &pack_a, &pack_b).size();
    packed_ms.push_back((now_s() - t0) * 1e3);
  }
  char text[320];
  std::snprintf(text, sizeof text,
                "paper_point: one SYN search m=1000 w=100 k=45/115 float32: "
                "%.3f ms with per-call neighbour packing, %.3f ms with "
                "maintained packs (paper Sec. V-A: ~1.2 ms; %zu/14 found)",
                median(repack_ms), median(packed_ms), found);
  report.line(text);
}

}  // namespace perfbench
