#include "core/syn_seeker.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/channel_select.hpp"
#include "core/turn_detector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::core {

namespace {

/// Sec. V-A / VI-E cost accounting for the SYN search. Handles resolve
/// once; increments happen in bulk per scan call, never per position, so
/// the packed kernel stays untouched.
struct SynMetrics {
  obs::Counter& seeks = obs::Registry::global().counter("syn.seeks");
  obs::Counter& windows =
      obs::Registry::global().counter("syn.windows_scanned");
  obs::Counter& kernel_blocks =
      obs::Registry::global().counter("syn.kernel_blocks");
  /// Blocks of a pruned scan that stopped before their last channel.
  obs::Counter& pruned_blocks =
      obs::Registry::global().counter("syn.pruned_blocks");
  obs::Counter& accepted =
      obs::Registry::global().counter("syn.candidates_accepted");
  obs::Counter& rejected =
      obs::Registry::global().counter("syn.candidates_rejected");
  obs::Counter& coherency_pass =
      obs::Registry::global().counter("syn.coherency_pass");
  obs::Counter& coherency_fail =
      obs::Registry::global().counter("syn.coherency_fail");
  obs::Histogram& seek_us =
      obs::Registry::global().histogram("syn.seek_us");
  obs::Histogram& kernel_us =
      obs::Registry::global().histogram("syn.kernel_us");
  /// Per-outcome seek split: "accepted", "below_threshold", or the plan's
  /// reject reason literal.
  obs::CounterFamily& outcomes =
      obs::Registry::global().counter_family("syn.seek_outcome", "outcome");
};

SynMetrics& syn_metrics() {
  static SynMetrics m;
  return m;
}

}  // namespace

void validate(const SynConfig& config) {
  // Every seek scans every metre; the grid fields are pinned (see
  // SynConfig) and a config asking for another grid has no search to run.
  if (config.stride_m != 1) {
    throw std::invalid_argument("SynConfig: stride_m must be 1");
  }
  if (config.coarse_stride_m > 1) {
    throw std::invalid_argument("SynConfig: coarse_stride_m must be 0 or 1");
  }
  if (config.precision != KernelPrecision::kFloat32) {
    throw std::invalid_argument("SynConfig: precision must be kFloat32");
  }
}

SynSeeker::SynSeeker(SynConfig config)
    : config_(config),
      identity_rows_(std::max<std::size_t>(config.top_channels, 1)) {
  validate(config_);
  std::iota(identity_rows_.begin(), identity_rows_.end(), std::size_t{0});
}

void rank_recent_windows(const ContextTrajectory& t, const SynConfig& config,
                         WindowRanks& ranks, ChannelSelectScratch& scratch,
                         const PackedContext* pack) {
  const std::size_t points = std::max<std::size_t>(1, config.syn_points);
  for (std::size_t k = 0; k < points; ++k) {
    const std::size_t offset = k * config.syn_segment_spacing_m;
    if (t.size() < offset + config.window_m || config.window_m == 0) {
      continue;
    }
    ranks.rank(k, t, t.size() - offset - config.window_m, config.window_m,
               config.top_channels, scratch, pack);
  }
  count_rank_routes(scratch);
}

void SynSeeker::plan_into(const ContextTrajectory& a,
                          const ContextTrajectory& b,
                          std::size_t recency_offset_m, SeekScratch& scratch,
                          const PackedContext* pack_a,
                          const PackedContext* pack_b,
                          const WindowRanks* ranks_a,
                          const WindowRanks* ranks_b) const {
  SeekPlan& p = scratch.plan;
  p.window = 0;
  p.threshold = 0.0;
  p.a_start = 0;
  p.b_start = 0;
  p.channels_a.clear();
  p.channels_b.clear();
  p.reject = nullptr;
  p.reject_v1 = 0.0;
  p.reject_v2 = 0.0;
  if (a.empty() || b.empty()) {
    p.reject = "syn.empty";
    return;
  }
  if (a.size() <= recency_offset_m || b.size() <= recency_offset_m) {
    p.reject = "syn.recency_overflow";
    return;
  }
  // Post-turn limiting (Sec. V-C): the RECENT fixed segment must not span
  // a turn — the metres before it belong to a different road.
  std::size_t avail_a = a.size() - recency_offset_m;
  std::size_t avail_b = b.size() - recency_offset_m;
  if (config_.respect_turns) {
    const auto tail_a =
        static_cast<std::size_t>(TurnDetector::straight_tail_metres(a));
    const auto tail_b =
        static_cast<std::size_t>(TurnDetector::straight_tail_metres(b));
    if (tail_a <= recency_offset_m || tail_b <= recency_offset_m) {
      p.reject = "syn.turn_limited";
      return;
    }
    avail_a = std::min(avail_a, tail_a - recency_offset_m);
    avail_b = std::min(avail_b, tail_b - recency_offset_m);
  }
  // Adaptive window (Sec. V-C): a context shorter than window_m shrinks
  // the window down to min_window_m, relaxing the threshold linearly.
  const std::size_t avail = std::min(avail_a, avail_b);
  p.threshold = config_.coherency_threshold;
  if (avail >= config_.window_m) {
    p.window = config_.window_m;
  } else if (config_.adaptive_window && avail >= config_.min_window_m) {
    const double t =
        static_cast<double>(avail - config_.min_window_m) /
        static_cast<double>(config_.window_m - config_.min_window_m);
    const double scale =
        config_.adaptive_threshold_floor +
        (1.0 - config_.adaptive_threshold_floor) * std::clamp(t, 0.0, 1.0);
    p.window = avail;
    p.threshold = config_.coherency_threshold * scale;
  } else {
    p.reject = "syn.no_window";
    p.reject_v1 = static_cast<double>(avail);
    p.reject_v2 = p.threshold;
    return;
  }
  p.a_start = a.size() - recency_offset_m - p.window;
  p.b_start = b.size() - recency_offset_m - p.window;

  // Channel selection from the fixed segments (top-k strongest): a held
  // ranking of exactly this window, else ranked here.
  const auto select = [&](const ContextTrajectory& t, std::size_t start,
                          const PackedContext* pack, const WindowRanks* ranks,
                          std::vector<std::size_t>& out) {
    const std::vector<std::size_t>* held =
        ranks != nullptr
            ? ranks->find(t, start, p.window, config_.top_channels)
            : nullptr;
    if (held != nullptr) {
      out.assign(held->begin(), held->end());
    } else {
      select_top_channels_into(t, start, p.window, config_.top_channels,
                               scratch.channels, out, kDefaultMinCoverage,
                               pack);
    }
  };
  select(a, p.a_start, pack_a, ranks_a, p.channels_a);
  select(b, p.b_start, pack_b, ranks_b, p.channels_b);
  count_rank_routes(scratch.channels);
  if (p.channels_a.empty() || p.channels_b.empty()) {
    p.reject = "syn.no_channels";
    p.reject_v1 = static_cast<double>(p.window);
    p.reject_v2 = p.threshold;
  }
}

SynSeeker::Candidate SynSeeker::best_over_positions(
    const ScanPair& pair, std::size_t window, std::size_t pos_lo,
    std::size_t pos_hi, const Pruning* pruning) const {
  if (pair.sliding.span.metres < window) return {};
  pos_hi = std::min(pos_hi, pair.sliding.span.metres - window + 1);
  if (pos_lo >= pos_hi) return {};
  const std::size_t count = pos_hi - pos_lo;
  const Candidate best =
      packed_best(pair.fixed, pair.fixed_start, pair.sliding, pos_lo, count,
                  window, config_.correlation, pruning);
  syn_metrics().kernel_blocks.inc(
      packed_batch_blocks(count, window, pair.sliding.span.metres));
  syn_metrics().pruned_blocks.inc(best.pruned_blocks);
  return best;
}

std::optional<SynPoint> SynSeeker::accept(const SeekPlan& plan,
                                          const Candidate& on_b,
                                          const Candidate& on_a) {
  std::optional<SynPoint> best;
  if (on_b.valid && on_b.correlation >= plan.threshold) {
    best = SynPoint{plan.a_start, on_b.position, plan.window,
                    on_b.correlation};
  }
  if (on_a.valid && on_a.correlation >= plan.threshold &&
      (!best || on_a.correlation > best->correlation)) {
    best = SynPoint{on_a.position, plan.b_start, plan.window,
                    on_a.correlation};
  }
  return best;
}

void SynSeeker::sort_best_first(std::vector<SynPoint>& points) {
  std::sort(points.begin(), points.end(),
            [](const SynPoint& x, const SynPoint& y) {
              return x.correlation > y.correlation;
            });
}

std::optional<SynPoint> SynSeeker::find_one(
    const ContextTrajectory& a, const ContextTrajectory& b,
    std::size_t recency_offset_m, const PackedContext* pack_a,
    const PackedContext* pack_b, SeekScratch* scratch,
    const WindowRanks* ranks_a, const WindowRanks* ranks_b) const {
  SeekScratch local_scratch;
  SeekScratch& ws = scratch != nullptr ? *scratch : local_scratch;
  SynMetrics& metrics = syn_metrics();
  metrics.seeks.inc();
  obs::ObsTimer timer(&metrics.seek_us, "syn.seek");
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.record(obs::EventType::kSeekStarted, "syn.seek",
                  static_cast<double>(a.size()), static_cast<double>(b.size()),
                  static_cast<double>(recency_offset_m));
  plan_into(a, b, recency_offset_m, ws, pack_a, pack_b, ranks_a, ranks_b);
  const SeekPlan& p = ws.plan;
  if (p.reject != nullptr) {
    metrics.outcomes.with(p.reject).inc();
    recorder.record(obs::EventType::kSeekRejected, p.reject, 0.0, p.reject_v1,
                    p.reject_v2);
    return std::nullopt;
  }

  // Each side either reuses a caller-maintained all-channel pack (row map =
  // selected channel ids) or falls back to the historical per-pass subset
  // packs (row map = 0..k-1, a prefix of the cached identity map — no
  // per-seek allocation). A stale caller pack is ignored — correctness
  // never depends on the caller keeping packs fresh.
  const bool have_a = pack_a != nullptr && pack_a->in_sync_with(a);
  const bool have_b = pack_b != nullptr && pack_b->in_sync_with(b);
  const std::span<const std::size_t> identity(identity_rows_);
  const std::span<const std::size_t> rows_ka =
      identity.first(p.channels_a.size());
  const std::span<const std::size_t> rows_kb =
      identity.first(p.channels_b.size());

  SubsetPack fixed_a, slide_b, fixed_b, slide_a;
  ScanPair pass1, pass2;
  if (have_a) {
    pass1.fixed = {pack_a->span(), p.channels_a};
    pass1.fixed_start = p.a_start;
    pass2.sliding = {pack_a->span(), p.channels_b};
  } else {
    fixed_a = SubsetPack(a, p.channels_a, p.a_start, p.window);
    pass1.fixed = {fixed_a.span(), rows_ka};
    slide_a = SubsetPack(a, p.channels_b, 0, a.size());
    pass2.sliding = {slide_a.span(), rows_kb};
  }
  if (have_b) {
    pass1.sliding = {pack_b->span(), p.channels_a};
    pass2.fixed = {pack_b->span(), p.channels_b};
    pass2.fixed_start = p.b_start;
  } else {
    slide_b = SubsetPack(b, p.channels_a, 0, b.size());
    pass1.sliding = {slide_b.span(), rows_ka};
    fixed_b = SubsetPack(b, p.channels_b, p.b_start, p.window);
    pass2.fixed = {fixed_b.span(), rows_kb};
  }

  // The fixed window slides over every metre of the other context, as an
  // exact pruned search (DESIGN §11).
  const auto slide = [&](const ScanPair& pair, const Pruning& pruning) {
    if (pair.sliding.span.metres < p.window) return Candidate{};
    const std::size_t positions = pair.sliding.span.metres - p.window + 1;
    metrics.windows.inc(positions);
    return best_over_positions(pair, p.window, 0, positions, &pruning);
  };
  // Pass 1 first scores where the last accepted offset puts A's window in
  // B; a prediction below metre 0 seeds the first block.
  Pruning prune1;
  if (ws.last_offset_m.has_value()) {
    const std::uint64_t pred =
        a.first_metre() + p.a_start - *ws.last_offset_m - b.first_metre();
    prune1.seed = static_cast<std::int64_t>(pred) < 0 ? 0 : pred;
  }
  // Both correlation-scan passes share one kernel span: the child of
  // "syn.seek" that shows up in the paper's Fig. 10-12 cost breakdowns.
  obs::ObsTimer kernel_timer(&metrics.kernel_us, "syn.kernel");
  // Pass 1 (Fig 7 left): recent segment of A slides over B.
  const Candidate on_b = slide(pass1, prune1);
  // Pass 2 (Fig 7 right): recent segment of B slides over A. It wins only
  // on a strictly greater score, so an accepted pass 1 is its bar; held to
  // it, pass 2 has no candidate unless it beats pass 1.
  Pruning prune2;
  if (on_b.valid && on_b.correlation >= p.threshold) {
    prune2.bar = on_b.correlation;
  }
  const Candidate on_a = slide(pass2, prune2);
  kernel_timer.stop();

  for (const Candidate& c : {on_b, on_a}) {
    if (!c.valid) continue;
    (c.correlation >= p.threshold ? metrics.accepted : metrics.rejected).inc();
  }

  const std::optional<SynPoint> best = accept(p, on_b, on_a);
  (best ? metrics.coherency_pass : metrics.coherency_fail).inc();
  if (!best) {
    const double best_corr = std::max(on_b.valid ? on_b.correlation : -2.0,
                                      on_a.valid ? on_a.correlation : -2.0);
    metrics.outcomes.with("below_threshold").inc();
    recorder.record(obs::EventType::kSeekRejected, "syn.below_threshold",
                    best_corr, static_cast<double>(p.window), p.threshold);
    return std::nullopt;
  }
  metrics.outcomes.with("accepted").inc();
  recorder.record(obs::EventType::kSeekAccepted, "syn.seek", best->correlation,
                  static_cast<double>(p.window), p.threshold);
  ws.last_offset_m =
      (a.first_metre() + best->index_a) - (b.first_metre() + best->index_b);
  return best;
}

std::vector<SynPoint> SynSeeker::find(const ContextTrajectory& a,
                                      const ContextTrajectory& b,
                                      const PackedContext* pack_a,
                                      const PackedContext* pack_b) const {
  SeekScratch scratch;
  std::vector<SynPoint> out;
  find_into(a, b, pack_a, pack_b, scratch, out);
  return out;
}

void SynSeeker::find_into(const ContextTrajectory& a,
                          const ContextTrajectory& b,
                          const PackedContext* pack_a,
                          const PackedContext* pack_b, SeekScratch& scratch,
                          std::vector<SynPoint>& out,
                          const WindowRanks* ranks_a,
                          const WindowRanks* ranks_b) const {
  out.clear();
  for (std::size_t k = 0; k < std::max<std::size_t>(1, config_.syn_points);
       ++k) {
    const std::size_t offset = k * config_.syn_segment_spacing_m;
    const auto syn =
        find_one(a, b, offset, pack_a, pack_b, &scratch, ranks_a, ranks_b);
    if (syn.has_value()) out.push_back(*syn);
  }
  sort_best_first(out);
}

}  // namespace rups::core
