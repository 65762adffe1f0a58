#include "core/syn_cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::core {

namespace {

/// Cache-effectiveness accounting: hit rate = tracking_hits /
/// (tracking_hits + tracking_misses + full_searches); the track_us/full_us
/// histograms expose the tracking-vs-full cost split.
struct CacheMetrics {
  obs::Counter& queries = obs::Registry::global().counter("syncache.queries");
  obs::Counter& hits =
      obs::Registry::global().counter("syncache.tracking_hits");
  obs::Counter& misses =
      obs::Registry::global().counter("syncache.tracking_misses");
  obs::Counter& full =
      obs::Registry::global().counter("syncache.full_searches");
  obs::Counter& invalidations =
      obs::Registry::global().counter("syncache.invalidations");
  obs::Histogram& track_us =
      obs::Registry::global().histogram("syncache.track_us");
  obs::Histogram& full_us =
      obs::Registry::global().histogram("syncache.full_us");
  /// How each point got resolved: "track_hit", "track_miss" (fell back to
  /// a full seek) or "full" (cold / tracking disabled).
  obs::CounterFamily& resolution = obs::Registry::global().counter_family(
      "syncache.resolution", "outcome");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

}  // namespace

SynCache::SynCache(SynConfig syn, SynCacheConfig config)
    : config_(config), seeker_(syn) {}

SynCache::TrackOutcome SynCache::verify_tracked(
    const ContextTrajectory& local, const ContextTrajectory& neighbour,
    std::size_t recency_offset_m, const PackedSpan& local_span,
    const PackedSpan& neighbour_span, const QuantizedPack* local_q,
    const QuantizedPack* neighbour_q) {
  seeker_.plan_into(local, neighbour, recency_offset_m, scratch_);
  const SynSeeker::SeekPlan& p = scratch_.plan;
  if (p.reject != nullptr) {
    // The full search would reject identically before any sliding — the
    // offset is resolved (no SYN point) without falling back.
    return {true, std::nullopt};
  }

  // Band of slide positions around the locked alignment, on the same
  // stride grid the full search scans.
  const auto band = [&](std::int64_t pred_m, std::size_t slide_metres)
      -> std::pair<std::size_t, std::size_t> {
    if (slide_metres < p.window) return {0, 0};
    const auto stride =
        static_cast<std::int64_t>(std::max<std::size_t>(1,
            seeker_.config().stride_m));
    const auto max_pos = static_cast<std::int64_t>(
        (slide_metres - p.window) / static_cast<std::size_t>(stride));
    const auto r = static_cast<std::int64_t>(config_.verify_radius_m);
    const std::int64_t lo_m = pred_m - r;
    const std::int64_t hi_m = pred_m + r;
    if (hi_m < 0) return {0, 0};
    const std::int64_t lo =
        lo_m <= 0 ? 0 : (lo_m + stride - 1) / stride;  // ceil, lo_m > 0
    const std::int64_t hi = std::min(hi_m / stride, max_pos);
    if (lo > hi) return {0, 0};
    return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi) + 1};
  };

  const auto l_first = static_cast<std::int64_t>(local.first_metre());
  const auto n_first = static_cast<std::int64_t>(neighbour.first_metre());
  // Pass 1: where the local fixed window should land in the neighbour.
  const std::int64_t pred_b =
      l_first + static_cast<std::int64_t>(p.a_start) - lock_offset_m_ -
      n_first;
  // Pass 2: where the neighbour fixed window should land locally.
  const std::int64_t pred_a =
      n_first + static_cast<std::int64_t>(p.b_start) + lock_offset_m_ -
      l_first;

  // The full search's own pass wiring, kernel and precision, over a band.
  SynSeeker::Candidate on_b;
  SynSeeker::Candidate on_a;
  if (const auto [lo, hi] = band(pred_b, neighbour_span.metres); lo < hi) {
    on_b = seeker_.best_over_positions(
        seeker_.scan_pair({local_span, p.channels_a}, p.a_start,
                          {neighbour_span, p.channels_a}, local_q,
                          neighbour_q),
        p.window, lo, hi);
  }
  if (const auto [lo, hi] = band(pred_a, local_span.metres); lo < hi) {
    on_a = seeker_.best_over_positions(
        seeker_.scan_pair({neighbour_span, p.channels_b}, p.b_start,
                          {local_span, p.channels_b}, neighbour_q, local_q),
        p.window, lo, hi);
  }
  // The full search's own accept rule; a miss falls back to a full seek.
  const std::optional<SynPoint> best = SynSeeker::accept(p, on_b, on_a);
  return {best.has_value(), best};
}

void SynCache::update_lock(const ContextTrajectory& local,
                           const ContextTrajectory& neighbour,
                           const std::vector<SynPoint>& syns) noexcept {
  if (!syns.empty()) {
    const SynPoint& s = syns.front();  // best correlation after the sort
    locked_ = true;
    lock_offset_m_ =
        static_cast<std::int64_t>(local.first_metre() + s.index_a) -
        static_cast<std::int64_t>(neighbour.first_metre() + s.index_b);
  } else if (locked_) {
    locked_ = false;
    ++stats_.invalidations;
    cache_metrics().invalidations.inc();
  }
}

void SynCache::find_into(const ContextTrajectory& local,
                         const ContextTrajectory& neighbour,
                         const PackedContext* local_pack,
                         const QuantizedPack* local_qpack,
                         std::vector<SynPoint>& out) {
  out.clear();
  CacheMetrics& m = cache_metrics();
  ++stats_.queries;
  m.queries.inc();
  const std::size_t points =
      std::max<std::size_t>(1, seeker_.config().syn_points);

  // Sync packs; a fresh caller-shared ego pack wins over our own copy.
  const PackedContext* lp = local_pack;
  if (lp == nullptr || !lp->in_sync_with(local)) {
    local_pack_.sync(local, config_.volatile_suffix_m);
    lp = &local_pack_;
  }
  neighbour_pack_.sync(neighbour, config_.volatile_suffix_m);

  // Quantized mirrors of whatever packs the scans will read. A fresh
  // caller-shared ego mirror (FleetEngine's, synced once per batch) wins
  // over our own copy, same rule as the float pack above.
  const KernelPrecision prec = seeker_.config().precision;
  const QuantizedPack* lq = nullptr;
  const QuantizedPack* nq = nullptr;
  if (prec != KernelPrecision::kFloat32) {
    const QuantBits bits = prec == KernelPrecision::kInt8 ? QuantBits::kInt8
                                                          : QuantBits::kInt16;
    if (local_qpack != nullptr && local_qpack->mirrors(*lp, bits)) {
      lq = local_qpack;
    } else {
      local_q_.sync(*lp, bits, config_.volatile_suffix_m);
      lq = &local_q_;
    }
    neighbour_q_.sync(neighbour_pack_, bits, config_.volatile_suffix_m);
    nq = &neighbour_q_;
  }

  if (!config_.enabled || !locked_) {
    // Cold (or tracking disabled): the full multi-offset search, through
    // the member scratch.
    obs::ObsTimer timer(&m.full_us, "syncache.full");
    stats_.full_searches += points;
    m.full.inc(points);
    m.resolution.with("full").inc(points);
    seeker_.find_into(local, neighbour, lp, &neighbour_pack_, lq, nq, scratch_,
                      out);
    if (config_.enabled) update_lock(local, neighbour, out);
    return;
  }

  const PackedSpan local_span = lp->span();
  const PackedSpan neighbour_span = neighbour_pack_.span();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  for (std::size_t k = 0; k < points; ++k) {
    const std::size_t offset = k * seeker_.config().syn_segment_spacing_m;
    TrackOutcome outcome;
    {
      obs::ObsTimer timer(&m.track_us, "syncache.track");
      outcome = verify_tracked(local, neighbour, offset, local_span,
                               neighbour_span, lq, nq);
    }
    if (outcome.resolved) {
      ++stats_.tracking_hits;
      m.hits.inc();
      m.resolution.with("track_hit").inc();
      if (outcome.syn.has_value()) {
        recorder.record(obs::EventType::kTrackVerified, "syncache.track",
                        outcome.syn->correlation, static_cast<double>(offset),
                        static_cast<double>(outcome.syn->window_m));
        out.push_back(*outcome.syn);
      }
      continue;
    }
    ++stats_.tracking_misses;
    m.misses.inc();
    m.resolution.with("track_miss").inc();
    recorder.record(obs::EventType::kTrackLost, "syncache.lost", 0.0,
                    static_cast<double>(offset));
    ++stats_.full_searches;
    m.full.inc();
    obs::ObsTimer timer(&m.full_us, "syncache.full");
    const auto syn = seeker_.find_one(local, neighbour, offset, lp,
                                      &neighbour_pack_, lq, nq, &scratch_);
    if (syn.has_value()) out.push_back(*syn);
  }
  SynSeeker::sort_best_first(out);
  update_lock(local, neighbour, out);
}

}  // namespace rups::core
