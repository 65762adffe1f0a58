#include "core/syn_cache.hpp"

#include <algorithm>
#include <stdexcept>
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

/// Slide positions [lo, hi) within `radius` metres of `pred`, clamped to
/// the positions a `window` fits in `slide_metres`. `pred` is a wrapped u64
/// difference read as signed; every step is unsigned and guarded, so no
/// prediction can overflow.
std::pair<std::size_t, std::size_t> tracking_band(std::uint64_t pred,
                                                  std::size_t slide_metres,
                                                  std::size_t window,
                                                  std::uint64_t radius) {
  if (slide_metres < window) return {0, 0};
  const std::uint64_t last = slide_metres - window;
  const bool below = static_cast<std::int64_t>(pred) < 0;
  // Distance from pred to [0, last]; past the radius the band is empty.
  const std::uint64_t gap = below ? 0 - pred : pred > last ? pred - last : 0;
  if (gap > radius) return {0, 0};
  if (below) return {0, std::min(radius - gap, last) + 1};
  const std::uint64_t lo = pred > radius ? pred - radius : 0;
  const std::uint64_t hi =
      pred < last && last - pred > radius ? pred + radius : last;
  return {lo, hi + 1};
}

}  // namespace

SynCache::SynCache(SynConfig syn, SynCacheConfig config)
    : config_(config), seeker_(syn) {}

SynCache::TrackOutcome SynCache::verify_tracked(
    const ContextTrajectory& local, const ContextTrajectory& neighbour,
    std::size_t recency_offset_m, const PackedContext& local_pack,
    const PackedContext& neighbour_pack, const QuantizedPack* local_q,
    const QuantizedPack* neighbour_q, const WindowRanks* local_ranks,
    const WindowRanks* neighbour_ranks) {
  seeker_.plan_into(local, neighbour, recency_offset_m, scratch_, &local_pack,
                    &neighbour_pack, local_ranks, neighbour_ranks);
  const SynSeeker::SeekPlan& p = scratch_.plan;
  if (p.reject != nullptr) {
    // The full search would reject identically before any sliding — the
    // offset is resolved (no SYN point) without falling back.
    return {true, std::nullopt};
  }

  // Predicted slide positions of each pass's fixed window, from the
  // locked odometer offset. first_metre() is any u64 (a V2V header sets
  // it), so the predictions are wrapped u64 differences: they equal the
  // signed position whenever that fits int64, and stay defined otherwise.
  const std::uint64_t l_first = local.first_metre();
  const std::uint64_t n_first = neighbour.first_metre();
  // Pass 1: where the local fixed window should land in the neighbour.
  const std::uint64_t pred_b = l_first + p.a_start - lock_offset_m_ - n_first;
  // Pass 2: where the neighbour fixed window should land locally.
  const std::uint64_t pred_a = n_first + p.b_start + lock_offset_m_ - l_first;

  // The full search's own pass wiring, kernel and precision, over a band.
  const PackedSpan local_span = local_pack.span();
  const PackedSpan neighbour_span = neighbour_pack.span();
  SynSeeker::Candidate on_b;
  SynSeeker::Candidate on_a;
  const std::uint64_t radius = config_.verify_radius_m;
  if (const auto [lo, hi] =
          tracking_band(pred_b, neighbour_span.metres, p.window, radius);
      lo < hi) {
    on_b = seeker_.best_over_positions(
        seeker_.scan_pair({local_span, p.channels_a}, p.a_start,
                          {neighbour_span, p.channels_a}, local_q,
                          neighbour_q),
        p.window, lo, hi);
  }
  if (const auto [lo, hi] =
          tracking_band(pred_a, local_span.metres, p.window, radius);
      lo < hi) {
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
    lock_offset_m_ = (local.first_metre() + s.index_a) -
                     (neighbour.first_metre() + s.index_b);
    // A fallback full search starts where the lock predicts.
    scratch_.last_offset_m = lock_offset_m_;
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
                         std::vector<SynPoint>& out,
                         const PackedContext* neighbour_pack,
                         const WindowRanks* local_ranks,
                         const WindowRanks* neighbour_ranks) {
  const KernelPrecision prec = seeker_.config().precision;
  const bool quantized = prec != KernelPrecision::kFloat32;
  if (local_pack == nullptr || !local_pack->in_sync_with(local) ||
      (quantized &&
       (local_qpack == nullptr || !local_qpack->mirrors(*local_pack, prec)))) {
    throw std::invalid_argument(
        "SynCache: the ego pack (and its quantized mirror) must be in sync");
  }
  out.clear();
  CacheMetrics& m = cache_metrics();
  ++stats_.queries;
  m.queries.inc();
  const std::size_t points =
      std::max<std::size_t>(1, seeker_.config().syn_points);

  // A caller-shared neighbour pack in sync wins over our own copy.
  const PackedContext* np = neighbour_pack;
  if (np == nullptr || !np->in_sync_with(neighbour)) {
    neighbour_pack_.sync(neighbour, config_.volatile_suffix_m);
    np = &neighbour_pack_;
  }

  // Quantized mirror of whichever neighbour pack the scans will read.
  if (quantized) neighbour_q_.sync(*np, prec, config_.volatile_suffix_m);
  const QuantizedPack* lq = quantized ? local_qpack : nullptr;
  const QuantizedPack* nq = quantized ? &neighbour_q_ : nullptr;

  if (!config_.enabled || !locked_) {
    // Cold (or tracking disabled): the full multi-offset search, through
    // the member scratch.
    obs::ObsTimer timer(&m.full_us, "syncache.full");
    stats_.full_searches += points;
    m.full.inc(points);
    m.resolution.with("full").inc(points);
    if (!config_.enabled) scratch_.last_offset_m.reset();
    seeker_.find_into(local, neighbour, local_pack, np, lq, nq, scratch_, out,
                      local_ranks, neighbour_ranks);
    if (config_.enabled) update_lock(local, neighbour, out);
    return;
  }

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  for (std::size_t k = 0; k < points; ++k) {
    const std::size_t offset = k * seeker_.config().syn_segment_spacing_m;
    TrackOutcome outcome;
    {
      obs::ObsTimer timer(&m.track_us, "syncache.track");
      outcome = verify_tracked(local, neighbour, offset, *local_pack, *np,
                               lq, nq, local_ranks, neighbour_ranks);
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
    const auto syn =
        seeker_.find_one(local, neighbour, offset, local_pack, np, lq, nq,
                         &scratch_, local_ranks, neighbour_ranks);
    if (syn.has_value()) out.push_back(*syn);
  }
  SynSeeker::sort_best_first(out);
  update_lock(local, neighbour, out);
}

}  // namespace rups::core
