// city_rounds: city-scale service load, open loop. A pre-generated
// CityFleet drives a 4-shard MatcherService drained on a thread pool.
// Rounds fall due on a fixed wall-clock period whether or not the previous
// round finished; each round is begin_round, observe every new metre,
// submit the ring query plan, drain, then drain_stream for the standing
// subscriptions a fixed share of pairs hold. Warm SynCache tracking and
// the pooled shard drain dominate; the kernel only runs on misses.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>

#include "core/fleet.hpp"
#include "obs/metrics.hpp"
#include "service/matcher_service.hpp"
#include "sim/service_sim.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = rups::core;
namespace sim = rups::sim;
using Service = rups::service::MatcherService;
using Query = sim::CityFleet::Query;

struct Size {
  std::size_t vehicles;
  /// Observe-only rounds that fill the contexts before any request.
  std::size_t feed_rounds;
  /// Full rounds inside set-up: they lock the SynCaches.
  std::size_t warm_rounds;
  std::size_t timed_rounds;
  double period_s;
};
constexpr Size kFull{160, 40, 2, 50, 0.020};
constexpr Size kTiny{16, 40, 1, 4, 0.004};
constexpr std::size_t kShards = 4;
/// Every kSubscriptionEvery-th vehicle holds a streaming subscription on
/// the vehicle ahead of it.
constexpr std::size_t kSubscriptionEvery = 4;

struct Inputs {
  Size size{};
  sim::CityFleetConfig city;
  std::vector<std::uint64_t> ids;
  std::vector<double> start_pos;
  /// samples[r][v]: the metres vehicle v drives in round r.
  std::vector<std::vector<std::vector<sim::CityFleet::Sample>>> samples;
  /// positions[r][v]: vehicle v's road position after round r.
  std::vector<std::vector<double>> positions;
  std::vector<Query> queries;
  std::vector<Query> subscriptions;

  [[nodiscard]] std::size_t first_request_round() const {
    return size.feed_rounds;
  }
  [[nodiscard]] std::size_t first_timed_round() const {
    return size.feed_rounds + size.warm_rounds;
  }
};

Inputs generate(const Options& opt) {
  Inputs in;
  in.size = opt.tiny ? kTiny : kFull;
  in.city.vehicles = in.size.vehicles;
  // 3 or 4 m a round: pairs drift at most 1 m a round, so most keep their
  // overlap and the SynCache tracks them across a whole pass.
  in.city.min_advance_m = 3;
  in.city.max_advance_m = 4;
  in.city.seed = opt.seed * 0x9E3779B97F4A7C15ULL + 0xC17F;
  sim::CityFleet fleet(in.city);
  const std::size_t n = fleet.vehicle_count();
  for (std::size_t v = 0; v < n; ++v) {
    in.ids.push_back(fleet.vehicle_id(v));
    in.start_pos.push_back(fleet.position(v));
  }
  in.queries = fleet.queries();
  for (std::size_t v = 0; v < n; v += kSubscriptionEvery) {
    in.subscriptions.push_back(Query{v, (v + 1) % n});
  }
  const std::size_t rounds = in.first_timed_round() + in.size.timed_rounds;
  in.samples.resize(rounds);
  in.positions.resize(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    fleet.advance_round();
    in.samples[r].resize(n);
    in.positions[r].resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      in.samples[r][v] = fleet.samples(v);
      in.positions[r][v] = fleet.position(v);
    }
  }
  return in;
}

rups::service::ServiceConfig service_config(const Inputs& in) {
  rups::service::ServiceConfig cfg;
  cfg.fleet.rups.channels = in.city.channels;
  cfg.fleet.rups.context_capacity_m = in.city.context_capacity_m;
  cfg.shard_count = kShards;
  cfg.max_vehicles = std::max<std::size_t>(1024, in.size.vehicles);
  cfg.queue_capacity = std::max<std::size_t>(1024, in.size.vehicles);
  return cfg;
}

struct Layers {
  // Traced passes, timed rounds.
  std::vector<double> observe_ms, submit_us, drain_ms, stream_drain_ms;
  std::vector<double> lateness_ms, skew;
  std::vector<double> traced_busy_ms, untraced_busy_ms;
  double observe_s = 0.0, submit_s = 0.0, drain_s = 0.0, stream_s = 0.0;
  double busy_s = 0.0;
  // First pass, timed rounds.
  double pooled_drain_s = 0.0;
  std::uint64_t rejected = 0;
  // Reference replay (bare serial per-vehicle FleetEngines), timed rounds.
  std::vector<double> fleet_us, track_us, miss_us, resolve_us;
  core::SynCache::Stats cache{};
  std::uint64_t windows = 0;
  double serial_s = 0.0;
  std::size_t mismatches = 0;
};

struct Pass {
  double setup_s = 0.0;
  double busy_s = 0.0;
  double mem_bytes = 0.0;
  std::vector<double> latency_s;
  std::size_t requests = 0;
  std::size_t estimates = 0;
  std::size_t rejected = 0;
  std::vector<double> errors;
  std::uint64_t digest = 0;
  /// Every request-round estimate in submission order (round requests,
  /// then subscriptions), kept on the first traced pass for the reference.
  std::vector<Estimate> results;
};

/// Timestamps of one round's phases.
struct Stamps {
  double begin = 0.0, observed = 0.0, submitted = 0.0, drained = 0.0,
         streamed = 0.0;
};

void sleep_until_s(double t) {
  using namespace std::chrono;
  std::this_thread::sleep_until(steady_clock::time_point(
      duration_cast<steady_clock::duration>(duration<double>(t))));
}

Pass run_pass(const Inputs& in, std::size_t threads, Layers* layers,
              bool traced, bool first) {
  const Size& z = in.size;
  const rups::service::ServiceConfig cfg = service_config(in);
  std::vector<Service::Ticket> tickets, subs;
  tickets.reserve(in.queries.size());
  subs.reserve(in.subscriptions.size());
  Pass p;
  Digest digest;
  const bool keep_results = layers != nullptr && first;

  const double heap0 = heap_in_use_bytes();
  const double s0 = now_s();
  Service svc(cfg);
  rups::util::ThreadPool pool(threads);
  for (std::size_t v = 0; v < in.ids.size(); ++v) {
    (void)svc.register_vehicle(in.ids[v], in.start_pos[v]);
  }

  const auto observe = [&](std::size_t r) {
    svc.begin_round();
    for (std::size_t v = 0; v < in.ids.size(); ++v) {
      for (const sim::CityFleet::Sample& s : in.samples[r][v]) {
        (void)svc.observe(in.ids[v], s.position_m, s.geo, s.power);
      }
    }
  };
  const auto run_round = [&](std::size_t r, bool per_call) {
    Stamps st;
    st.begin = now_s();
    observe(r);
    st.observed = now_s();
    tickets.clear();
    for (const Query& q : in.queries) {
      if (per_call) {
        const double a = now_s();
        tickets.push_back(svc.submit(in.ids[q.ego], in.ids[q.neighbour]));
        layers->submit_us.push_back((now_s() - a) * 1e6);
      } else {
        tickets.push_back(svc.submit(in.ids[q.ego], in.ids[q.neighbour]));
      }
    }
    if (subs.empty()) {
      for (const Query& q : in.subscriptions) {
        subs.push_back(svc.subscribe(in.ids[q.ego], in.ids[q.neighbour]));
      }
    }
    st.submitted = now_s();
    svc.drain(&pool);
    st.drained = now_s();
    svc.drain_stream(&pool);
    st.streamed = now_s();
    return st;
  };
  // Results become visible at drain end; read them outside the round.
  const auto collect = [&](std::size_t r, bool timed) {
    const std::vector<double>& pos = in.positions[r];
    const auto take = [&](bool accepted, const Estimate& e, const Query& q) {
      digest.add(e);
      if (keep_results) p.results.push_back(e);
      if (!timed) return;
      ++p.requests;
      if (!accepted) ++p.rejected;
      if (e.has_value()) {
        ++p.estimates;
        p.errors.push_back(
            std::abs(e->distance_m - (pos[q.ego] - pos[q.neighbour])));
      }
    };
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const bool ok = tickets[i].accepted();
      take(ok, ok ? svc.result(tickets[i]).estimate : Estimate{},
           in.queries[i]);
    }
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const bool ok = subs[i].accepted();
      take(ok, ok ? svc.stream_result(subs[i]).estimate : Estimate{},
           in.subscriptions[i]);
    }
  };

  for (std::size_t r = 0; r < in.first_request_round(); ++r) observe(r);
  for (std::size_t r = in.first_request_round(); r < in.first_timed_round();
       ++r) {
    (void)run_round(r, false);
    collect(r, false);
  }
  p.setup_s = now_s() - s0;

  const double t_start = now_s();
  for (std::size_t i = 0; i < z.timed_rounds; ++i) {
    const std::size_t r = in.first_timed_round() + i;
    const double due = t_start + static_cast<double>(i) * z.period_s;
    sleep_until_s(due);
    const Stamps st = run_round(r, traced);
    const double busy = st.streamed - st.begin;
    p.latency_s.push_back(st.streamed - due);
    p.busy_s += busy;
    if (layers != nullptr) {
      (traced ? layers->traced_busy_ms : layers->untraced_busy_ms)
          .push_back(busy * 1e3);
      if (first) layers->pooled_drain_s += st.streamed - st.submitted;
    }
    if (traced) {
      layers->lateness_ms.push_back((st.begin - due) * 1e3);
      layers->observe_ms.push_back((st.observed - st.begin) * 1e3);
      layers->drain_ms.push_back((st.drained - st.submitted) * 1e3);
      layers->stream_drain_ms.push_back((st.streamed - st.drained) * 1e3);
      layers->observe_s += st.observed - st.begin;
      layers->submit_s += st.submitted - st.observed;
      layers->drain_s += st.drained - st.submitted;
      layers->stream_s += st.streamed - st.drained;
      layers->busy_s += busy;
      std::uint64_t most = 0, all = 0;
      for (std::size_t s = 0; s < svc.shard_count(); ++s) {
        most = std::max(most, svc.shard_stats(s).processed);
        all += svc.shard_stats(s).processed;
      }
      if (all > 0) {
        layers->skew.push_back(static_cast<double>(most) *
                               static_cast<double>(svc.shard_count()) /
                               static_cast<double>(all));
      }
    }
    collect(r, true);
  }
  p.mem_bytes = heap_in_use_bytes() - heap0;
  p.digest = digest.value();
  if (layers != nullptr && first) layers->rejected = p.rejected;
  return p;
}

/// The reference every service estimate must equal: one bare FleetEngine
/// per vehicle, fed the same metres, queried serially in submission order.
/// Doubles as the single-threaded baseline of service.parallel_efficiency.
void reference_replay(const Inputs& in, const std::vector<Estimate>& served,
                      Layers& layers) {
  core::FleetConfig fc = service_config(in).fleet;
  fc.per_neighbour_latency = false;
  std::vector<core::ContextTrajectory> trajs;
  std::vector<std::unique_ptr<core::FleetEngine>> engines;
  trajs.reserve(in.ids.size());
  for (std::size_t v = 0; v < in.ids.size(); ++v) {
    trajs.emplace_back(in.city.channels, in.city.context_capacity_m);
    engines.push_back(std::make_unique<core::FleetEngine>(fc));
  }
  rups::obs::Counter& windows =
      rups::obs::Registry::global().counter("syn.windows_scanned");
  std::vector<core::FleetEngine::NeighbourResult> result;
  std::size_t k = 0;
  const auto estimate = [&](const Query& q, bool timed) {
    const core::ContextTrajectory* nb = &trajs[q.neighbour];
    const std::uint64_t id = in.ids[q.neighbour];
    core::FleetEngine& engine = *engines[q.ego];
    const core::SynCache::Stats before = engine.cache_stats();
    const std::uint64_t w0 = windows.value();
    const double t0 = now_s();
    engine.estimate_batch_into(
        trajs[q.ego], std::span<const core::ContextTrajectory* const>(&nb, 1),
        std::span<const std::uint64_t>(&id, 1), nullptr, result);
    const double dt = now_s() - t0;
    const core::SynCache::Stats after = engine.cache_stats();
    // Resolve probe: the same aggregation the batch ran, timed alone.
    const double a0 = now_s();
    const Estimate again = core::aggregate_estimates(
        trajs[q.ego], *nb, result[0].syn_points, fc.rups.aggregation);
    const double a1 = now_s();
    if (k >= served.size() || !same_estimate(result[0].estimate, served[k]) ||
        !same_estimate(again, result[0].estimate)) {
      ++layers.mismatches;
    }
    ++k;
    if (!timed) return;
    layers.serial_s += dt;
    layers.fleet_us.push_back(dt * 1e6);
    layers.resolve_us.push_back((a1 - a0) * 1e6);
    (after.full_searches > before.full_searches ? layers.miss_us
                                                : layers.track_us)
        .push_back(dt * 1e6);
    layers.cache.queries += after.queries - before.queries;
    layers.cache.tracking_hits += after.tracking_hits - before.tracking_hits;
    layers.cache.tracking_misses +=
        after.tracking_misses - before.tracking_misses;
    layers.cache.full_searches += after.full_searches - before.full_searches;
    layers.windows += windows.value() - w0;
  };
  for (std::size_t r = 0; r < in.samples.size(); ++r) {
    for (std::size_t v = 0; v < in.ids.size(); ++v) {
      for (const sim::CityFleet::Sample& s : in.samples[r][v]) {
        trajs[v].append(s.geo, s.power);
      }
    }
    if (r < in.first_request_round()) continue;
    const bool timed = r >= in.first_timed_round();
    for (const Query& q : in.queries) estimate(q, timed);
    for (const Query& q : in.subscriptions) estimate(q, timed);
  }
  if (k != served.size()) ++layers.mismatches;
}

}  // namespace

void run_city_rounds(const Options& opt, Report& report) {
  const double g0 = now_s();
  const Inputs in = generate(opt);
  report.value("input_generation_s", now_s() - g0, "s");
  const std::size_t threads = std::clamp<std::size_t>(host_cpus(), 1, kShards);
  const rups::service::ServiceConfig cfg = service_config(in);
  const core::SynConfig& syn = cfg.fleet.rups.syn;
  char text[640];
  std::snprintf(
      text, sizeof text,
      "config: open loop, period_ms=%.1f vehicles=%zu shards=%zu "
      "pool_threads=%zu subscriptions=%zu rounds feed/warm/timed=%zu/%zu/%zu "
      "m=%zu w=%zu k=%zu channels=%zu precision=%s stride_m=%zu "
      "coarse_stride_m=%zu verify_radius_m=%zu city_seed=%llu",
      in.size.period_s * 1e3, in.ids.size(), kShards, threads,
      in.subscriptions.size(), in.size.feed_rounds, in.size.warm_rounds,
      in.size.timed_rounds, in.city.context_capacity_m, syn.window_m,
      syn.top_channels, in.city.channels,
      precision_name(syn.precision),
      syn.stride_m, syn.coarse_stride_m, cfg.fleet.cache.verify_radius_m,
      static_cast<unsigned long long>(in.city.seed));
  report.line(text);
  report_host(report, threads);
  report_paper_point(report, opt.seed);

  // Traced runs alternate instrumented and plain passes: the plain ones
  // give trace.overhead_ratio. The first pass is always the traced one.
  Layers layers;
  std::vector<Pass> passes;
  const double start = now_s();
  do {
    const bool traced = opt.trace && passes.size() % 2 == 0;
    passes.push_back(run_pass(in, threads, opt.trace ? &layers : nullptr,
                              traced, passes.empty()));
    if (opt.trace && passes.size() == 1) {
      reference_replay(in, passes.front().results, layers);
    }
  } while (now_s() - start < opt.seconds || (opt.trace && passes.size() < 2));

  const Pass& first = passes.front();
  std::vector<PassTimes> times;
  std::vector<double> mem_bytes;
  bool repeatable = true;
  for (const Pass& p : passes) {
    times.push_back({p.latency_s, p.busy_s, p.estimates, p.setup_s});
    mem_bytes.push_back(p.mem_bytes);
    report.attempted += p.requests;
    report.failed += p.rejected;
    repeatable = repeatable && p.digest == first.digest;
  }
  report.check(repeatable,
               "every pass reproduces the first pass's estimates bit for bit");
  char digest[64];
  std::snprintf(digest, sizeof digest, "estimate_digest=%016llx passes=%zu",
                static_cast<unsigned long long>(first.digest), passes.size());
  report.line(digest);
  const double availability =
      first.requests > 0 ? static_cast<double>(first.estimates) /
                               static_cast<double>(first.requests)
                         : 0.0;
  report_end_to_end(report, times);
  report.metric("mem_mb", median(mem_bytes) / (1024.0 * 1024.0));
  report.metric("rde_p50_m", quantile(first.errors, 0.50));
  report.metric("rde_p95_m", quantile(first.errors, 0.95));
  report.metric("availability", availability);
  report.check(first.rejected == 0, "city_rounds admits every request");
  report.check(availability >= 0.5, "city_rounds availability >= 0.5");
  // The hashed city field makes truth and estimates whole metres apart;
  // a wrong match is tens of metres off.
  report.check(quantile(first.errors, 0.50) <= 1.0 &&
                   quantile(first.errors, 0.95) <= 15.0,
               "city_rounds relative-distance error p50 <= 1 m, p95 <= 15 m");

  if (!opt.trace) return;
  report.check(layers.mismatches == 0,
               "service estimates equal a bare serial per-vehicle "
               "FleetEngine replay bit for bit");
  const core::SynCache::Stats& c = layers.cache;
  report.metric("core.seek.full_us_p50", quantile(layers.miss_us, 0.50));
  report.metric("core.seek.full_us_p95", quantile(layers.miss_us, 0.95));
  report.metric("core.seek.full_searches",
                static_cast<double>(c.full_searches));
  report.metric("core.seek.windows_scanned",
                static_cast<double>(layers.windows));
  report.metric("core.seek.ns_per_window",
                layers.windows > 0 ? total(layers.miss_us) * 1e3 /
                                         static_cast<double>(layers.windows)
                                   : 0.0);
  report.metric("core.cache.queries", static_cast<double>(c.queries));
  report.metric("core.cache.track_hits", static_cast<double>(c.tracking_hits));
  report.metric("core.cache.track_misses",
                static_cast<double>(c.tracking_misses));
  report.metric("core.cache.hit_ratio",
                c.queries > 0 ? static_cast<double>(c.tracking_hits) /
                                    static_cast<double>(c.queries)
                              : 0.0);
  report.metric("core.cache.track_us_p50", quantile(layers.track_us, 0.50));
  report.metric("core.cache.miss_us_p50", quantile(layers.miss_us, 0.50));
  report.metric("core.resolve.us_p50", quantile(layers.resolve_us, 0.50));
  report.metric("core.fleet.batch_us_p50", quantile(layers.fleet_us, 0.50));
  report.metric("core.fleet.batch_us_p95", quantile(layers.fleet_us, 0.95));
  report.metric("service.observe_ms_p50", quantile(layers.observe_ms, 0.50));
  report.metric("service.submit_us_p50", quantile(layers.submit_us, 0.50));
  report.metric("service.drain_ms_p50", quantile(layers.drain_ms, 0.50));
  report.metric("service.drain_ms_p95", quantile(layers.drain_ms, 0.95));
  report.metric("service.stream_drain_ms_p50",
                quantile(layers.stream_drain_ms, 0.50));
  report.metric("service.admission_rejected",
                static_cast<double>(layers.rejected));
  report.metric("service.shard_skew", median(layers.skew));
  report.metric("service.parallel_efficiency",
                layers.pooled_drain_s > 0.0
                    ? layers.serial_s / (layers.pooled_drain_s *
                                         static_cast<double>(threads))
                    : 0.0);
  report.metric("service.round_lateness_ms_p95",
                quantile(layers.lateness_ms, 0.95));
  report.metric("trace.overhead_ratio",
                median(layers.untraced_busy_ms) > 0.0
                    ? median(layers.traced_busy_ms) /
                          median(layers.untraced_busy_ms)
                    : 0.0);
  report.line("reference (serial FleetEngine per vehicle): batch " +
              summary_us(layers.fleet_us) + "; cache hit " +
              summary_us(layers.track_us) + "; cache miss " +
              summary_us(layers.miss_us));
  reconcile(report, "round busy (observe + submit + drain + stream drain)",
            layers.busy_s,
            {{"service.observe", layers.observe_s},
             {"service.submit", layers.submit_s},
             {"service.drain", layers.drain_s},
             {"service.stream_drain", layers.stream_s}});
}

}  // namespace perfbench
