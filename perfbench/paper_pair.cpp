// paper_pair: the paper's own query path. Two cars drive a four-lane urban
// route; their sensor streams are recorded once, then replayed into fresh
// RupsEngines every pass. Once a second of sensor time the rear car pulls
// the front car's context over a clean ExchangeSession (full once, then
// tails) and calls estimate_distance on the decoded copy: a cold full SYN
// search with a per-call neighbour re-pack. Closed loop, single thread.

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/packed.hpp"
#include "core/resolver.hpp"
#include "core/syn_seeker.hpp"
#include "obs/metrics.hpp"
#include "sim/convoy_sim.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "v2v/codec.hpp"
#include "v2v/exchange.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = rups::core;
namespace sim = rups::sim;
namespace v2v = rups::v2v;

constexpr double kQueryIntervalS = 1.0;
constexpr std::size_t kQueries = 60;
constexpr double kMaxWarmupS = 900.0;

/// Stream prefix lengths of one recorded trace at one sensor time.
struct Cut {
  std::size_t imu = 0;
  std::size_t obd = 0;
  std::size_t rssi = 0;
};

Cut cut_of(const sim::VehicleTrace& t) {
  return {t.imu.size(), t.obd.size(), t.rssi.size()};
}

struct Inputs {
  core::RupsConfig rups;
  sim::VehicleTrace front;
  sim::VehicleTrace rear;
  /// [0] ends the warm-up (both contexts full); [q] is query q's time.
  std::vector<Cut> front_cuts;
  std::vector<Cut> rear_cuts;
  /// Signed ground truth at query q: rear minus front route position
  /// (positive = the querying rear car is in front). [0] is unused.
  std::vector<double> truth;
  double warmup_s = 0.0;
};

Inputs generate(const Options& opt) {
  sim::Scenario scenario = sim::Scenario::two_car(
      opt.seed, rups::road::EnvironmentType::kFourLaneUrban);
  if (opt.tiny) scenario.rups.context_capacity_m = 200;
  sim::ConvoySimulation convoy(scenario);
  sim::TraceRecorder front_rec;
  sim::TraceRecorder rear_rec;
  convoy.mutable_rig(0).set_trace_sink(&front_rec);
  convoy.mutable_rig(1).set_trace_sink(&rear_rec);

  Inputs in;
  in.rups = convoy.rig(1).engine().config();
  // The warm-up ends at the first whole second both contexts are full. Set-up
  // work grows with the metres driven, so a fixed stretch of sensor time
  // would make it depend on how far each seed's drive got.
  const std::size_t full = in.rups.context_capacity_m;
  double t = 0.0;
  while (convoy.rig(0).engine().context().size() < full ||
         convoy.rig(1).engine().context().size() < full) {
    if (convoy.finished() || t >= kMaxWarmupS) {
      throw std::runtime_error(
          "paper_pair: the drive ended before both contexts filled");
    }
    t += kQueryIntervalS;
    convoy.run_until(t);
  }
  in.warmup_s = t;
  const auto mark = [&](double truth) {
    in.front_cuts.push_back(cut_of(front_rec.trace()));
    in.rear_cuts.push_back(cut_of(rear_rec.trace()));
    in.truth.push_back(truth);
  };
  mark(0.0);
  const std::size_t queries = opt.tiny ? 4 : kQueries;
  for (std::size_t q = 0; q < queries && !convoy.finished(); ++q) {
    t += kQueryIntervalS;
    convoy.run_until(t);
    mark(convoy.rig(1).state().position_m - convoy.rig(0).state().position_m);
  }
  in.front = std::move(front_rec.trace());
  in.rear = std::move(rear_rec.trace());
  return in;
}

/// Feeds one recorded trace into an engine in sim::replay_trace's merge
/// order (speed before IMU on ties, RSSI before a later IMU sample),
/// stopping at a cut and resuming from there on the next call.
class Replayer {
 public:
  explicit Replayer(const sim::VehicleTrace& trace) : trace_(trace) {}

  void feed_until(const Cut& cut, core::RupsEngine& engine) {
    const auto time_of = [](std::size_t i, std::size_t end, const auto& v) {
      return i < end ? v[i].time_s : std::numeric_limits<double>::infinity();
    };
    for (;;) {
      const double ti = time_of(imu_, cut.imu, trace_.imu);
      const double to = time_of(obd_, cut.obd, trace_.obd);
      const double tr = time_of(rssi_, cut.rssi, trace_.rssi);
      if (std::isinf(ti) && std::isinf(to) && std::isinf(tr)) return;
      if (to <= ti && to <= tr) {
        engine.on_speed(trace_.obd[obd_++]);
      } else if (tr < ti) {
        engine.on_rssi(trace_.rssi[rssi_++]);
      } else {
        engine.on_imu(trace_.imu[imu_++]);
      }
    }
  }

 private:
  const sim::VehicleTrace& trace_;
  std::size_t imu_ = 0;
  std::size_t obd_ = 0;
  std::size_t rssi_ = 0;
};

/// Per-layer samples of the traced passes. Counts come from the first
/// traced pass only, so they repeat exactly across runs of one seed.
struct Layers {
  std::vector<double> ingest_pass_ms;
  double ingest_s = 0.0;
  std::uint64_t ingest_metres = 0;
  std::vector<double> exchange_us, pack_us, seek_us, resolve_us;
  std::vector<double> encode_us, decode_us;
  /// Decomposed estimate (pack + seek + resolve) vs the reference
  /// RupsEngine::estimate_distance on the same inputs.
  std::vector<double> estimate_us, reference_us;
  double query_s = 0.0;
  double seek_s = 0.0;
  std::uint64_t seek_windows = 0;
  std::uint64_t seeks = 0, windows = 0;
  std::uint64_t bytes = 0, packets = 0, arq_rounds = 0, degraded = 0,
                failed = 0;
  std::size_t mismatches = 0;
};

struct Pass {
  double setup_s = 0.0;
  double busy_s = 0.0;
  double mem_bytes = 0.0;
  std::vector<double> latency_s;
  std::size_t queries = 0;
  std::size_t estimates = 0;
  std::size_t failed = 0;
  std::size_t bytes = 0;
  std::vector<double> errors;
  std::uint64_t digest = 0;
};

constexpr std::uint64_t kLinkSeed = 0xB0B5'CAFEULL;

Pass run_pass(const Inputs& in, Layers* layers, bool first) {
  rups::obs::Counter& windows =
      rups::obs::Registry::global().counter("syn.windows_scanned");
  rups::obs::Counter& seeks = rups::obs::Registry::global().counter("syn.seeks");
  const core::SynSeeker seeker(in.rups.syn);
  core::PackedContext ego_pack;

  Pass p;
  const double heap0 = heap_in_use_bytes();
  const double s0 = now_s();
  core::RupsEngine front(in.rups);
  core::RupsEngine rear(in.rups);
  v2v::DsrcLink link(kLinkSeed);
  v2v::ExchangeSession session(&link);
  v2v::V2vReceiver receiver(in.rups.channels, in.rups.context_capacity_m);
  Replayer front_feed(in.front);
  Replayer rear_feed(in.rear);
  front_feed.feed_until(in.front_cuts[0], front);
  rear_feed.feed_until(in.rear_cuts[0], rear);
  (void)receiver.ingest(session.exchange_full(front.context()), true);
  p.setup_s = now_s() - s0;

  Digest digest;
  double ingest_s = 0.0;
  for (std::size_t q = 1; q < in.truth.size(); ++q) {
    const std::uint64_t metres0 =
        end_metre(front.context()) + end_metre(rear.context());
    const double t0 = now_s();
    front_feed.feed_until(in.front_cuts[q], front);
    rear_feed.feed_until(in.rear_cuts[q], rear);
    const double t1 = now_s();
    ingest_s += t1 - t0;

    const bool full = !receiver.have_full;
    const std::uint64_t since = receiver.synced_metre;
    const core::ContextTrajectory& nb = receiver.received;
    Estimate estimate;
    double query_s = 0.0;
    if (layers == nullptr) {
      const double q0 = now_s();
      const v2v::ExchangeResult ex =
          full ? session.exchange_full(front.context())
               : session.exchange_tail(front.context(), since);
      (void)receiver.ingest(ex, full);
      if (!nb.empty()) estimate = rear.estimate_distance(nb);
      query_s = now_s() - q0;
    } else {
      // The same query, one layer per timed call.
      const double q0 = now_s();
      const v2v::ExchangeResult ex =
          full ? session.exchange_full(front.context())
               : session.exchange_tail(front.context(), since);
      (void)receiver.ingest(ex, full);
      const double q1 = now_s();
      double q2 = q1, q3 = q1;
      std::uint64_t scanned = 0, seek_count = 0;
      if (!nb.empty()) {
        ego_pack.sync(rear.context());
        core::PackedContext nb_pack;
        nb_pack.sync(nb);
        q2 = now_s();
        const std::uint64_t w0 = windows.value();
        const std::uint64_t k0 = seeks.value();
        const std::vector<core::SynPoint> syns =
            seeker.find(rear.context(), nb, &ego_pack, &nb_pack);
        q3 = now_s();
        scanned = windows.value() - w0;
        seek_count = seeks.value() - k0;
        estimate = core::aggregate_estimates(rear.context(), nb, syns,
                                             in.rups.aggregation);
      }
      const double q4 = now_s();
      query_s = q4 - q0;

      // Outside the traced window: the reference path on the same inputs
      // (must agree bit for bit) and a codec probe on this query's payload.
      if (!nb.empty()) {
        const double r0 = now_s();
        const Estimate reference = rear.estimate_distance(nb);
        layers->reference_us.push_back((now_s() - r0) * 1e6);
        layers->estimate_us.push_back((q4 - q1) * 1e6);
        if (!same_estimate(estimate, reference)) ++layers->mismatches;
      }
      if (end_metre(front.context()) > since) {
        const double c0 = now_s();
        const std::vector<std::uint8_t> payload =
            full ? v2v::TrajectoryCodec::encode(front.context())
                 : v2v::TrajectoryCodec::encode_tail(front.context(), since);
        const double c1 = now_s();
        (void)v2v::TrajectoryCodec::decode(payload);
        const double c2 = now_s();
        layers->encode_us.push_back((c1 - c0) * 1e6);
        layers->decode_us.push_back((c2 - c1) * 1e6);
      }
      layers->exchange_us.push_back((q1 - q0) * 1e6);
      if (!nb.empty()) {
        layers->pack_us.push_back((q2 - q1) * 1e6);
        layers->seek_us.push_back((q3 - q2) * 1e6);
        layers->resolve_us.push_back((q4 - q3) * 1e6);
      }
      layers->query_s += query_s;
      layers->seek_s += q3 - q2;
      layers->seek_windows += scanned;
      if (first) {
        layers->seeks += seek_count;
        layers->windows += scanned;
        layers->bytes += ex.stats.payload_bytes;
        layers->packets += ex.stats.packets;
        layers->arq_rounds += ex.rounds;
        layers->degraded += ex.outcome == v2v::ExchangeOutcome::kDegraded;
        layers->failed += ex.outcome == v2v::ExchangeOutcome::kFailed;
      }
    }

    ++p.queries;
    if (nb.empty()) ++p.failed;
    if (estimate.has_value()) {
      ++p.estimates;
      p.errors.push_back(std::abs(estimate->distance_m - in.truth[q]));
    }
    digest.add(estimate);
    p.latency_s.push_back(query_s);
    p.busy_s += (t1 - t0) + query_s;
    if (layers != nullptr) {
      layers->ingest_metres +=
          end_metre(front.context()) + end_metre(rear.context()) - metres0;
    }
  }
  if (layers != nullptr) {
    layers->ingest_s += ingest_s;
    layers->ingest_pass_ms.push_back(ingest_s * 1e3);
  }
  p.bytes = session.total_bytes();
  p.digest = digest.value();
  p.mem_bytes = heap_in_use_bytes() - heap0;
  return p;
}

}  // namespace

void run_paper_pair(const Options& opt, Report& report) {
  const double g0 = now_s();
  const Inputs in = generate(opt);
  report.value("input_generation_s", now_s() - g0, "s");
  const core::SynConfig& syn = in.rups.syn;
  char text[512];
  std::snprintf(
      text, sizeof text,
      "config: two cars, four-lane urban, closed loop, single thread; "
      "m=%zu w=%zu k=%zu channels=%zu precision=%s stride_m=%zu "
      "coarse_stride_m=%zu syn_points=%zu verify_radius=n/a (no cache) "
      "pool_threads=0 scenario_seed=%llu warmup_s=%.0f queries=%zu "
      "query_interval_s=%.0f",
      in.rups.context_capacity_m, syn.window_m, syn.top_channels,
      in.rups.channels,
      precision_name(syn.precision),
      syn.stride_m, syn.coarse_stride_m, syn.syn_points,
      static_cast<unsigned long long>(opt.seed), in.warmup_s,
      in.truth.size() - 1, kQueryIntervalS);
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
    report.attempted += p.queries;
    report.failed += p.failed;
    repeatable = repeatable && p.digest == first.digest;
  }
  report.check(repeatable,
               "every pass reproduces the first pass's estimates bit for bit");
  char digest[64];
  std::snprintf(digest, sizeof digest, "estimate_digest=%016llx passes=%zu",
                static_cast<unsigned long long>(first.digest), passes.size());
  report.line(digest);

  const double availability =
      first.queries > 0 ? static_cast<double>(first.estimates) /
                              static_cast<double>(first.queries)
                        : 0.0;
  report_end_to_end(report, times);
  report.metric("mem_mb", median(mem_bytes) / (1024.0 * 1024.0));
  report.metric("rde_p50_m", quantile(first.errors, 0.50));
  report.metric("rde_p95_m", quantile(first.errors, 0.95));
  report.metric("availability", availability);
  report.metric("bytes_per_estimate",
                first.estimates > 0 ? static_cast<double>(first.bytes) /
                                          static_cast<double>(first.estimates)
                                    : 0.0);
  report.check(availability >= 0.5, "paper_pair availability >= 0.5");
  report.check(quantile(first.errors, 0.50) <= 10.0,
               "paper_pair median relative-distance error <= 10 m");

  if (!opt.trace) return;
  report.check(layers.mismatches == 0,
               "decomposed pack+seek+resolve equals "
               "RupsEngine::estimate_distance bit for bit");
  report.metric("core.ingest.busy_ms", median(layers.ingest_pass_ms));
  report.metric("core.ingest.us_per_metre",
                layers.ingest_metres > 0
                    ? layers.ingest_s * 1e6 /
                          static_cast<double>(layers.ingest_metres)
                    : 0.0);
  report.metric("core.pack.sync_us_p50", quantile(layers.pack_us, 0.50));
  report.metric("core.pack.sync_us_p95", quantile(layers.pack_us, 0.95));
  report.metric("core.seek.full_us_p50", quantile(layers.seek_us, 0.50));
  report.metric("core.seek.full_us_p95", quantile(layers.seek_us, 0.95));
  report.metric("core.seek.full_searches", static_cast<double>(layers.seeks));
  report.metric("core.seek.windows_scanned",
                static_cast<double>(layers.windows));
  report.metric("core.seek.ns_per_window",
                layers.seek_windows > 0
                    ? layers.seek_s * 1e9 /
                          static_cast<double>(layers.seek_windows)
                    : 0.0);
  report.metric("core.resolve.us_p50", quantile(layers.resolve_us, 0.50));
  report.metric("v2v.exchange_us_p50", quantile(layers.exchange_us, 0.50));
  report.metric("v2v.exchange_us_p95", quantile(layers.exchange_us, 0.95));
  report.metric("v2v.bytes", static_cast<double>(layers.bytes));
  report.metric("v2v.packets", static_cast<double>(layers.packets));
  report.metric("v2v.arq_rounds", static_cast<double>(layers.arq_rounds));
  report.metric("v2v.degraded", static_cast<double>(layers.degraded));
  report.metric("v2v.failed", static_cast<double>(layers.failed));
  report.metric("v2v.codec_encode_us_p50", quantile(layers.encode_us, 0.50));
  report.metric("v2v.codec_decode_us_p50", quantile(layers.decode_us, 0.50));
  report.metric("trace.overhead_ratio",
                median(layers.reference_us) > 0.0
                    ? median(layers.estimate_us) / median(layers.reference_us)
                    : 0.0);
  report.line("layers: exchange " + summary_us(layers.exchange_us) +
              "; pack " + summary_us(layers.pack_us) + "; seek " +
              summary_us(layers.seek_us) + "; resolve " +
              summary_us(layers.resolve_us) +
              "; reference estimate_distance " +
              summary_us(layers.reference_us));
  const double pack_s = total(layers.pack_us) * 1e-6;
  const double seek_s = total(layers.seek_us) * 1e-6;
  reconcile(report, "query (tail exchange + estimate)", layers.query_s,
            {{"v2v.exchange", total(layers.exchange_us) * 1e-6},
             {"core.pack", pack_s},
             {"core.seek", seek_s},
             {"core.resolve", total(layers.resolve_us) * 1e-6}});
  report.value("seek_plus_pack_share_of_query",
               layers.query_s > 0.0 ? (pack_s + seek_s) / layers.query_s : 0.0,
               "ratio");
}

}  // namespace perfbench
