// stream_urban: on-board streaming. One ego StreamingEngine against K = 8
// beacon neighbours, each over its own FaultyChannel with the urban fault
// profile. Every metre appends one CityFleet sample to every context, then
// calls update(): a beacon-diff exchange per neighbour (codec, ARQ,
// stale/resync handling) and one warm-SynCache FleetEngine batch over the
// views that grew. Closed loop, single thread; the only lossy workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <span>

#include "core/fleet.hpp"
#include "core/packed.hpp"
#include "core/resolver.hpp"
#include "core/syn_cache.hpp"
#include "obs/metrics.hpp"
#include "sim/service_sim.hpp"
#include "stream/beacon.hpp"
#include "stream/stream_engine.hpp"
#include "v2v/channel.hpp"
#include "v2v/codec.hpp"
#include "v2v/link.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = rups::core;
namespace sim = rups::sim;
namespace v2v = rups::v2v;
namespace stream = rups::stream;

constexpr std::size_t kNeighbours = 8;

struct Size {
  /// Rounds of per-metre updates inside set-up (initial full syncs, cold
  /// searches, SynCache locks).
  std::size_t warm_rounds;
  std::size_t timed_rounds;
};
constexpr Size kFull{12, 40};
constexpr Size kTiny{12, 3};

struct Inputs {
  Size size{};
  sim::CityFleetConfig city;
  std::uint64_t link_seed = 0;
  std::uint64_t fault_seed = 0;
  std::vector<std::uint64_t> ids;  ///< [0] is the ego
  /// samples[r][v]: the metres vehicle v drives in round r; every round is
  /// replayed metre by metre, one update per metre step.
  std::vector<std::vector<std::vector<sim::CityFleet::Sample>>> samples;
};

Inputs generate(const Options& opt) {
  Inputs in;
  in.size = opt.tiny ? kTiny : kFull;
  in.city.vehicles = kNeighbours + 1;
  // 160 m contexts 8 m apart: the farthest neighbour still overlaps the
  // ego by more than a checking window, and the per-neighbour packs stay
  // small enough that the update is not dominated by shared-cache misses.
  in.city.context_capacity_m = 160;
  in.city.spacing_m = 8.0;
  // Every car drives 12 m per round, so every metre step grows every
  // context and each update re-estimates all K neighbours.
  in.city.min_advance_m = 12;
  in.city.max_advance_m = 12;
  in.city.seed = opt.seed * 0xD1B54A32D192ED03ULL + 0x57EA;
  in.link_seed = opt.seed ^ 0xB0B5'CAFEULL;
  in.fault_seed = opt.seed * 0x2545F4914F6CDD1DULL + 0xC4A77E1ULL;
  sim::CityFleet fleet(in.city);
  for (std::size_t v = 0; v < fleet.vehicle_count(); ++v) {
    in.ids.push_back(fleet.vehicle_id(v));
  }
  in.samples.resize(in.size.warm_rounds + in.size.timed_rounds);
  for (auto& round : in.samples) {
    fleet.advance_round();
    round.resize(fleet.vehicle_count());
    for (std::size_t v = 0; v < fleet.vehicle_count(); ++v) {
      round[v] = fleet.samples(v);
    }
  }
  return in;
}

stream::StreamConfig stream_config(const Inputs& in) {
  stream::StreamConfig cfg;
  cfg.fleet.rups.channels = in.city.channels;
  cfg.fleet.rups.context_capacity_m = in.city.context_capacity_m;
  return cfg;
}

struct Layers {
  std::vector<double> beacon_us, exchange_us, fleet_us;
  std::vector<double> pack_us, track_us, miss_us, resolve_us;
  std::vector<double> encode_us, decode_us;
  std::vector<double> update_us, reference_us;
  double window_s = 0.0, beacon_s = 0.0, fleet_s = 0.0;
  double seek_s = 0.0;
  // First pass, timed steps.
  stream::BeaconStats beacons{};
  core::SynCache::Stats cache{};
  std::uint64_t bytes = 0, packets = 0, arq_rounds = 0, degraded = 0,
                failed = 0, windows = 0;
  std::size_t mismatches = 0;
};

struct Pass {
  double setup_s = 0.0;
  double busy_s = 0.0;
  double mem_bytes = 0.0;
  std::vector<double> latency_s;
  std::size_t requested = 0;
  std::size_t estimates = 0;
  std::size_t failed = 0;
  std::size_t bytes = 0;
  std::size_t pass_estimates = 0;
  std::vector<double> errors;
  std::uint64_t digest = 0;
};

/// The traced decomposition of StreamingEngine::update: one BeaconSession
/// per neighbour on an identically seeded link and channels, the same
/// grew-since-last-estimate selection, and one FleetEngine batch. A second
/// level splits the batch into the ego pack sync, one SynCache per
/// neighbour and the resolver, exactly as FleetEngine runs them.
class Replica {
 public:
  Replica(const Inputs& in, const stream::StreamConfig& cfg)
      : cfg_(cfg), link_(in.link_seed), fleet_(cfg.fleet) {
    for (std::size_t i = 1; i < in.ids.size(); ++i) {
      channels_.push_back(std::make_unique<v2v::FaultyChannel>(
          in.fault_seed + i, v2v::FaultConfig::urban()));
      beacons_.push_back(std::make_unique<stream::BeaconSession>(
          cfg.fleet.rups.channels, cfg.fleet.rups.context_capacity_m, &link_,
          channels_.back().get(), cfg.beacon));
      ids_all_.push_back(in.ids[i]);
    }
    last_view_end_.assign(beacons_.size(), 0);
  }

  [[nodiscard]] stream::BeaconStats beacon_stats() const {
    stream::BeaconStats total;
    for (const auto& b : beacons_) {
      total.beacons += b->stats().beacons;
      total.diffs += b->stats().diffs;
      total.no_news += b->stats().no_news;
      total.rerequests += b->stats().rerequests;
      total.resyncs += b->stats().resyncs;
    }
    return total;
  }
  [[nodiscard]] std::size_t total_bytes() const {
    std::size_t total = 0;
    for (const auto& b : beacons_) total += b->total_bytes();
    return total;
  }

  /// One update. `record` collects timings (false during set-up); `count`
  /// collects the first pass's counts. Second-level disagreements with the
  /// FleetEngine batch land in layers.mismatches.
  void step(const core::ContextTrajectory& ego,
            std::span<const core::ContextTrajectory* const> senders,
            Layers& layers, bool record, bool count) {
    rups::obs::Registry& reg = rups::obs::Registry::global();
    rups::obs::Counter& packets = reg.counter("v2v.packets");
    rups::obs::Counter& rounds = reg.counter("v2v.delivery.rounds");
    rups::obs::Counter& degraded = reg.counter("v2v.delivery.degraded");
    rups::obs::Counter& failed = reg.counter("v2v.delivery.failed");
    rups::obs::Counter& windows = reg.counter("syn.windows_scanned");

    views_.clear();
    ids_.clear();
    probes_.clear();
    const std::uint64_t ego_end = end_metre(ego);
    const bool ego_grew = ego_end != last_ego_end_;
    const std::uint64_t k0 = packets.value(), r0 = rounds.value(),
                        d0 = degraded.value(), f0 = failed.value();
    const std::size_t bytes0 = total_bytes();
    double beacon_s = 0.0;

    const double w0 = now_s();
    for (std::size_t i = 0; i < beacons_.size(); ++i) {
      stream::BeaconSession& b = *beacons_[i];
      const std::uint64_t since = b.watermark();
      const double a = now_s();
      const stream::BeaconOutcome outcome = b.beacon(*senders[i]);
      const double d = now_s() - a;
      beacon_s += d;
      if (record) {
        layers.beacon_us.push_back(d * 1e6);
        if (outcome != stream::BeaconOutcome::kNoNews) {
          layers.exchange_us.push_back(d * 1e6);
        }
      }
      if (outcome != stream::BeaconOutcome::kNoNews &&
          outcome != stream::BeaconOutcome::kResync) {
        probes_.emplace_back(i, since);
      }
      const std::uint64_t view_end = end_metre(b.view());
      const bool view_grew = view_end != last_view_end_[i];
      last_view_end_[i] = view_end;
      if (view_end != 0 && ego_end != 0 && (ego_grew || view_grew)) {
        ids_.push_back(ids_all_[i]);
        views_.push_back(&b.view());
      }
    }
    last_ego_end_ = ego_end;
    const double w1 = now_s();
    if (!ids_.empty()) {
      fleet_.estimate_batch_into(
          ego,
          std::span<const core::ContextTrajectory* const>(views_.data(),
                                                          views_.size()),
          std::span<const std::uint64_t>(ids_.data(), ids_.size()), nullptr,
          results_);
    }
    const double w2 = now_s();

    if (record) {
      layers.window_s += w2 - w0;
      layers.beacon_s += beacon_s;
      layers.fleet_s += w2 - w1;
      layers.update_us.push_back((w2 - w0) * 1e6);
      if (!ids_.empty()) layers.fleet_us.push_back((w2 - w1) * 1e6);
    }
    if (count) {
      layers.packets += packets.value() - k0;
      layers.arq_rounds += rounds.value() - r0;
      layers.degraded += degraded.value() - d0;
      layers.failed += failed.value() - f0;
      layers.bytes += total_bytes() - bytes0;
    }

    // Second level, outside the traced window: FleetEngine's own steps.
    if (!ids_.empty()) {
      const double p0 = now_s();
      ego_pack_.sync(ego, cfg_.fleet.cache.volatile_suffix_m);
      if (record) layers.pack_us.push_back((now_s() - p0) * 1e6);
      core::SynCacheConfig cache_cfg = cfg_.fleet.cache;
      cache_cfg.enabled = cfg_.fleet.use_cache;
      for (std::size_t j = 0; j < ids_.size(); ++j) {
        std::unique_ptr<core::SynCache>& cache = caches_[ids_[j]];
        if (!cache) {
          cache = std::make_unique<core::SynCache>(cfg_.fleet.rups.syn,
                                                   cache_cfg);
        }
        const core::SynCache::Stats before = cache->stats();
        const std::uint64_t win0 = windows.value();
        const double c0 = now_s();
        cache->find_into(ego, *views_[j], &ego_pack_, nullptr, syns_);
        const double c1 = now_s();
        const Estimate e = core::aggregate_estimates(
            ego, *views_[j], syns_, cfg_.fleet.rups.aggregation);
        const double c2 = now_s();
        if (!same_estimate(e, results_[j].estimate)) ++layers.mismatches;
        const core::SynCache::Stats& after = cache->stats();
        if (record) {
          (after.full_searches > before.full_searches ? layers.miss_us
                                                      : layers.track_us)
              .push_back((c1 - c0) * 1e6);
          layers.resolve_us.push_back((c2 - c1) * 1e6);
        }
        if (count) {
          layers.cache.queries += after.queries - before.queries;
          layers.cache.tracking_hits +=
              after.tracking_hits - before.tracking_hits;
          layers.cache.tracking_misses +=
              after.tracking_misses - before.tracking_misses;
          layers.cache.full_searches +=
              after.full_searches - before.full_searches;
          layers.windows += windows.value() - win0;
          if (after.full_searches > before.full_searches) {
            layers.seek_s += c1 - c0;
          }
        }
      }
    }
    // Codec probe on this step's tail payloads.
    if (record) {
      for (const auto& [i, since] : probes_) {
        const double e0 = now_s();
        const std::vector<std::uint8_t> payload =
            v2v::TrajectoryCodec::encode_tail(*senders[i], since);
        const double e1 = now_s();
        (void)v2v::TrajectoryCodec::decode(payload);
        const double e2 = now_s();
        layers.encode_us.push_back((e1 - e0) * 1e6);
        layers.decode_us.push_back((e2 - e1) * 1e6);
      }
    }
  }

  /// The last step's selection and results, for the reference comparison.
  [[nodiscard]] bool matches(const stream::StreamingEngine::Update& u) const {
    if (u.ids != ids_ || u.results.size() < ids_.size()) return false;
    for (std::size_t j = 0; j < ids_.size(); ++j) {
      if (!same_estimate(u.results[j].estimate, results_[j].estimate)) {
        return false;
      }
    }
    return true;
  }

 private:
  stream::StreamConfig cfg_;
  v2v::DsrcLink link_;
  std::vector<std::unique_ptr<v2v::FaultyChannel>> channels_;
  std::vector<std::unique_ptr<stream::BeaconSession>> beacons_;
  std::vector<std::uint64_t> ids_all_;
  std::vector<std::uint64_t> last_view_end_;
  std::uint64_t last_ego_end_ = 0;
  core::FleetEngine fleet_;
  std::vector<const core::ContextTrajectory*> views_;
  std::vector<std::uint64_t> ids_;
  std::vector<core::FleetEngine::NeighbourResult> results_;
  std::vector<std::pair<std::size_t, std::uint64_t>> probes_;
  core::PackedContext ego_pack_;
  std::map<std::uint64_t, std::unique_ptr<core::SynCache>> caches_;
  std::vector<core::SynPoint> syns_;
};

Pass run_pass(const Inputs& in, Layers* layers, bool first) {
  const stream::StreamConfig cfg = stream_config(in);
  const std::size_t k = in.ids.size() - 1;
  Pass p;
  Digest digest;
  const double heap0 = heap_in_use_bytes();
  const double s0 = now_s();
  stream::StreamingEngine engine(cfg);
  v2v::DsrcLink link(in.link_seed);
  std::vector<std::unique_ptr<v2v::FaultyChannel>> channels;
  for (std::size_t i = 1; i <= k; ++i) {
    channels.push_back(std::make_unique<v2v::FaultyChannel>(
        in.fault_seed + i, v2v::FaultConfig::urban()));
    engine.add_neighbour(in.ids[i], &link, channels.back().get());
  }
  std::vector<core::ContextTrajectory> trajs;
  trajs.reserve(k + 1);
  for (std::size_t v = 0; v <= k; ++v) {
    trajs.emplace_back(cfg.fleet.rups.channels,
                       cfg.fleet.rups.context_capacity_m);
  }
  std::vector<const core::ContextTrajectory*> senders;
  for (std::size_t v = 1; v <= k; ++v) senders.push_back(&trajs[v]);
  const std::span<const core::ContextTrajectory* const> sender_span(
      senders.data(), senders.size());
  std::vector<double> last_pos(k + 1, 0.0);
  std::unique_ptr<Replica> replica;
  if (layers != nullptr) replica = std::make_unique<Replica>(in, cfg);
  stream::BeaconStats beacons_at_setup{};

  for (std::size_t r = 0; r < in.samples.size(); ++r) {
    const bool timed = r >= in.size.warm_rounds;
    if (r == in.size.warm_rounds) {
      p.setup_s = now_s() - s0;
      if (replica) beacons_at_setup = replica->beacon_stats();
    }
    const auto& round = in.samples[r];
    std::size_t steps = 0;
    for (const auto& batch : round) steps = std::max(steps, batch.size());
    for (std::size_t s = 0; s < steps; ++s) {
      const double t0 = now_s();
      for (std::size_t v = 0; v <= k; ++v) {
        if (s < round[v].size()) {
          trajs[v].append(round[v][s].geo, round[v][s].power);
        }
      }
      const double t1 = now_s();
      if (replica) {
        replica->step(trajs[0], sender_span, *layers, timed, timed && first);
      }
      const double u0 = now_s();
      const stream::StreamingEngine::Update& u =
          engine.update(trajs[0], sender_span);
      const double u1 = now_s();
      for (std::size_t v = 0; v <= k; ++v) {
        if (s < round[v].size()) last_pos[v] = round[v][s].position_m;
      }
      if (replica) {
        if (!replica->matches(u)) ++layers->mismatches;
        if (timed) layers->reference_us.push_back((u1 - u0) * 1e6);
      }
      for (std::size_t j = 0; j < u.ids.size(); ++j) {
        digest.add(u.ids[j]);
        digest.add(u.results[j].estimate);
      }
      if (!timed) continue;
      p.latency_s.push_back(u1 - u0);
      p.busy_s += (t1 - t0) + (u1 - u0);
      for (std::size_t i = 1; i <= k; ++i) {
        const core::ContextTrajectory* view = engine.view(in.ids[i]);
        if (view == nullptr || view->empty()) ++p.failed;
      }
      p.requested += u.ids.size();
      for (std::size_t j = 0; j < u.ids.size(); ++j) {
        const Estimate& e = u.results[j].estimate;
        if (!e.has_value()) continue;
        ++p.estimates;
        const std::size_t i = u.ids[j] - in.ids[0];
        p.errors.push_back(
            std::abs(e->distance_m - (last_pos[0] - last_pos[i])));
      }
    }
  }
  p.mem_bytes = heap_in_use_bytes() - heap0;
  p.bytes = engine.total_beacon_bytes();
  p.pass_estimates = engine.estimates();
  p.digest = digest.value();
  if (replica && first) {
    const stream::BeaconStats end = replica->beacon_stats();
    layers->beacons.diffs = end.diffs - beacons_at_setup.diffs;
    layers->beacons.no_news = end.no_news - beacons_at_setup.no_news;
    layers->beacons.rerequests = end.rerequests - beacons_at_setup.rerequests;
    layers->beacons.resyncs = end.resyncs - beacons_at_setup.resyncs;
  }
  return p;
}

}  // namespace

void run_stream_urban(const Options& opt, Report& report) {
  const double g0 = now_s();
  const Inputs in = generate(opt);
  report.value("input_generation_s", now_s() - g0, "s");
  const stream::StreamConfig cfg = stream_config(in);
  const core::SynConfig& syn = cfg.fleet.rups.syn;
  char text[640];
  std::snprintf(
      text, sizeof text,
      "config: closed loop, single thread, ego + %zu beacon neighbours over "
      "FaultConfig::urban(); rounds warm/timed=%zu/%zu (one update per "
      "metre) m=%zu w=%zu k=%zu channels=%zu precision=%s stride_m=%zu "
      "coarse_stride_m=%zu verify_radius_m=%zu max_gap_rerequests=%zu "
      "pool_threads=0 city_seed=%llu",
      kNeighbours, in.size.warm_rounds, in.size.timed_rounds,
      in.city.context_capacity_m, syn.window_m, syn.top_channels,
      in.city.channels,
      precision_name(syn.precision),
      syn.stride_m, syn.coarse_stride_m, cfg.fleet.cache.verify_radius_m,
      cfg.beacon.max_gap_rerequests,
      static_cast<unsigned long long>(in.city.seed));
  report.line(text);
  report_host(report, host_cpus());
  report_paper_point(report, opt.seed);

  Layers layers;
  std::vector<Pass> passes;
  const double start = now_s();
  do {
    passes.push_back(
        run_pass(in, opt.trace ? &layers : nullptr, passes.empty()));
  } while (now_s() - start < opt.seconds);

  const Pass& first = passes.front();
  std::vector<PassTimes> times;
  std::vector<double> mem_bytes;
  bool repeatable = true;
  for (const Pass& p : passes) {
    times.push_back({p.latency_s, p.busy_s, p.estimates, p.setup_s});
    mem_bytes.push_back(p.mem_bytes);
    report.attempted += p.requested + p.failed;
    report.failed += p.failed;
    repeatable = repeatable && p.digest == first.digest;
  }
  report.check(repeatable,
               "every pass reproduces the first pass's estimates bit for bit");
  char digest[64];
  std::snprintf(digest, sizeof digest, "estimate_digest=%016llx passes=%zu",
                static_cast<unsigned long long>(first.digest), passes.size());
  report.line(digest);
  const std::size_t asked = first.requested + first.failed;
  const double availability =
      asked > 0 ? static_cast<double>(first.estimates) /
                      static_cast<double>(asked)
                : 0.0;
  report_end_to_end(report, times);
  report.metric("mem_mb", median(mem_bytes) / (1024.0 * 1024.0));
  report.metric("rde_p50_m", quantile(first.errors, 0.50));
  report.metric("rde_p95_m", quantile(first.errors, 0.95));
  report.metric("availability", availability);
  report.metric("bytes_per_estimate",
                first.pass_estimates > 0
                    ? static_cast<double>(first.bytes) /
                          static_cast<double>(first.pass_estimates)
                    : 0.0);
  report.check(availability >= 0.5, "stream_urban availability >= 0.5");
  report.check(quantile(first.errors, 0.50) <= 1.0 &&
                   quantile(first.errors, 0.95) <= 15.0,
               "stream_urban relative-distance error p50 <= 1 m, p95 <= 15 m");

  if (!opt.trace) return;
  report.check(layers.mismatches == 0,
               "StreamingEngine results equal the BeaconSession + "
               "FleetEngine (+ pack/SynCache/resolve) decomposition bit for "
               "bit");
  const core::SynCache::Stats& c = layers.cache;
  report.metric("core.pack.sync_us_p50", quantile(layers.pack_us, 0.50));
  report.metric("core.pack.sync_us_p95", quantile(layers.pack_us, 0.95));
  report.metric("core.seek.full_us_p50", quantile(layers.miss_us, 0.50));
  report.metric("core.seek.full_us_p95", quantile(layers.miss_us, 0.95));
  report.metric("core.seek.full_searches",
                static_cast<double>(c.full_searches));
  report.metric("core.seek.windows_scanned",
                static_cast<double>(layers.windows));
  report.metric("core.seek.ns_per_window",
                layers.windows > 0 ? layers.seek_s * 1e9 /
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
  report.metric("v2v.exchange_us_p50", quantile(layers.exchange_us, 0.50));
  report.metric("v2v.exchange_us_p95", quantile(layers.exchange_us, 0.95));
  report.metric("v2v.bytes", static_cast<double>(layers.bytes));
  report.metric("v2v.packets", static_cast<double>(layers.packets));
  report.metric("v2v.arq_rounds", static_cast<double>(layers.arq_rounds));
  report.metric("v2v.degraded", static_cast<double>(layers.degraded));
  report.metric("v2v.failed", static_cast<double>(layers.failed));
  report.metric("v2v.codec_encode_us_p50", quantile(layers.encode_us, 0.50));
  report.metric("v2v.codec_decode_us_p50", quantile(layers.decode_us, 0.50));
  report.metric("stream.beacon_us_p50", quantile(layers.beacon_us, 0.50));
  report.metric("stream.beacon_us_p95", quantile(layers.beacon_us, 0.95));
  report.metric("stream.estimate_us_p50", quantile(layers.fleet_us, 0.50));
  report.metric("stream.estimate_us_p95", quantile(layers.fleet_us, 0.95));
  report.metric("stream.diffs", static_cast<double>(layers.beacons.diffs));
  report.metric("stream.no_news", static_cast<double>(layers.beacons.no_news));
  report.metric("stream.rerequests",
                static_cast<double>(layers.beacons.rerequests));
  report.metric("stream.resyncs", static_cast<double>(layers.beacons.resyncs));
  report.metric("trace.overhead_ratio",
                median(layers.reference_us) > 0.0
                    ? median(layers.update_us) / median(layers.reference_us)
                    : 0.0);
  report.line("layers: beacon " + summary_us(layers.beacon_us) +
              "; fleet batch " + summary_us(layers.fleet_us) +
              "; ego pack " + summary_us(layers.pack_us) + "; cache hit " +
              summary_us(layers.track_us) + "; cache miss " +
              summary_us(layers.miss_us) + "; reference update " +
              summary_us(layers.reference_us));
  reconcile(report, "update (beacons + estimate batch)", layers.window_s,
            {{"stream.beacon", layers.beacon_s},
             {"core.fleet", layers.fleet_s}});
}

}  // namespace perfbench
