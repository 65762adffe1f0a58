#include "core/syn_seeker.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

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

SynSeeker::SynSeeker(SynConfig config)
    : config_(config),
      identity_rows_(std::max<std::size_t>(config.top_channels, 1)) {
  std::iota(identity_rows_.begin(), identity_rows_.end(), std::size_t{0});
}

void SynSeeker::plan_into(const ContextTrajectory& a,
                          const ContextTrajectory& b,
                          std::size_t recency_offset_m,
                          SeekScratch& scratch) const {
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

  // Channel selection from the fixed segments (top-k strongest).
  select_top_channels_into(a, p.a_start, p.window, config_.top_channels,
                           scratch.channels, p.channels_a);
  select_top_channels_into(b, p.b_start, p.window, config_.top_channels,
                           scratch.channels, p.channels_b);
  if (p.channels_a.empty() || p.channels_b.empty()) {
    p.reject = "syn.no_channels";
    p.reject_v1 = static_cast<double>(p.window);
    p.reject_v2 = p.threshold;
  }
}

SynSeeker::Candidate SynSeeker::best_over_positions(
    const ScanPair& pair, std::size_t window, std::size_t pos_lo,
    std::size_t pos_hi) const {
  Candidate best;
  if (pair.sliding.span.metres < window) return best;
  const std::size_t positions =
      (pair.sliding.span.metres - window) / config_.stride_m + 1;
  pos_hi = std::min(pos_hi, positions);
  if (pos_lo >= pos_hi) return best;
  return best_over_grid(pair, window, pos_lo, pos_hi, config_.stride_m,
                        config_.stride_m);
}

SynSeeker::Candidate SynSeeker::best_over_grid(
    const ScanPair& pair, std::size_t window, std::size_t grid_lo,
    std::size_t grid_hi, std::size_t metre_step,
    std::size_t index_step) const {
  Candidate best;
  if (grid_lo >= grid_hi) return best;
  const auto reduce = [&best, index_step](const double* scores,
                                          std::size_t first,
                                          std::size_t count) {
    for (std::size_t b = 0; b < count; ++b) {
      if (!best.valid || scores[b] > best.correlation) {
        best = {scores[b], (first + b) * index_step, true};
      }
    }
  };

  double scores[kLagBlock];

  // Strided grids (metre_step > 1) never use the FLOAT kernel's
  // strided-lane nest for big scans: its lane loads are non-contiguous,
  // the auto-vectorizer gives up, and the 6×kLagBlock live accumulators
  // then cost more than per-position scoring. Instead:
  //  - small strides (≤ kCoveringScanMaxStrideM, measured — DESIGN
  //    §11): score the *contiguous covering metre range* at full block
  //    width and reduce only the lanes landing on the grid. Scores are
  //    bit-identical however they are batched, so the extra lanes are
  //    semantically free, and at batch speed this beats per-position
  //    scoring up to the measured crossover stride.
  //  - larger strides: per-position scoring (the covering range would
  //    spend most lanes between grid points).
  // The quantized kernel needs neither: its along-window integer pass
  // scores strided lanes at contiguous cost, so every quantized grid
  // takes the generic batched loop below.
  if (metre_step > 1 && pair.precision == KernelPrecision::kFloat32) {
    const std::size_t m_lo = grid_lo * metre_step;
    const std::size_t m_last = (grid_hi - 1) * metre_step;
    if (metre_step <= kCoveringScanMaxStrideM &&
        m_last - m_lo + 1 >= kLagBlock) {
      std::size_t blocks = 0;
      const auto reduce_cover = [&](std::size_t m0) {
        for (std::size_t b = 0; b < kLagBlock; ++b) {
          const std::size_t m = m0 + b;
          if (m > m_last || m % metre_step != 0) continue;
          if (!best.valid || scores[b] > best.correlation) {
            best = {scores[b], (m / metre_step) * index_step, true};
          }
        }
      };
      std::size_t m = m_lo;
      for (; m + kLagBlock <= m_last + 1; m += kLagBlock) {
        packed_correlation_batch(pair.fixed, pair.fixed_start, pair.sliding,
                                 m, kLagBlock, window, config_.correlation,
                                 scores);
        reduce_cover(m);
        ++blocks;
      }
      if (m <= m_last) {
        // Overlapped tail on the metre axis (same argument as below: a
        // re-scored lane is bit-identical and cannot displace `best`).
        const std::size_t start = m_last + 1 - kLagBlock;
        packed_correlation_batch(pair.fixed, pair.fixed_start, pair.sliding,
                                 start, kLagBlock, window,
                                 config_.correlation, scores);
        reduce_cover(start);
        ++blocks;
      }
      syn_metrics().kernel_blocks.inc(blocks);
      return best;
    }
    if (metre_step > kCoveringScanMaxStrideM) {
      for (std::size_t g = grid_lo; g < grid_hi; ++g) {
        const double s = packed_correlation(pair.fixed, pair.fixed_start,
                                            pair.sliding, g * metre_step,
                                            window, config_.correlation);
        if (!best.valid || s > best.correlation) {
          best = {s, g * index_step, true};
        }
      }
      syn_metrics().kernel_blocks.inc(grid_hi - grid_lo);
      return best;
    }
    // Small-span strided grid: fall through — the generic loop below ends
    // in degenerate per-position blocks for counts under kLagBlock.
  }

  std::size_t q = grid_lo;
  for (; q + kLagBlock <= grid_hi; q += kLagBlock) {
    scan_correlation_batch(pair, q * metre_step, kLagBlock, window,
                           config_.correlation, scores, metre_step);
    reduce(scores, q, kLagBlock);
  }
  std::size_t blocks = (q - grid_lo) / kLagBlock;
  if (q < grid_hi) {
    if (grid_hi - grid_lo >= kLagBlock) {
      // Overlapped tail: rescore the last kLagBlock grid points. The
      // re-seen lanes are bit-identical to their full-block scores, and an
      // equal score can never displace `best` (strict >), so the
      // lowest-position tie-break is untouched.
      const std::size_t start = grid_hi - kLagBlock;
      scan_correlation_batch(pair, start * metre_step, kLagBlock, window,
                             config_.correlation, scores, metre_step);
      reduce(scores, start, kLagBlock);
      blocks += 1;
    } else {
      scan_correlation_batch(pair, q * metre_step, grid_hi - q, window,
                             config_.correlation, scores, metre_step);
      reduce(scores, q, grid_hi - q);
      blocks += grid_hi - q;  // degenerate single-position blocks
    }
  }
  syn_metrics().kernel_blocks.inc(blocks);
  return best;
}

SynSeeker::Candidate SynSeeker::slide(const ScanPair& pair,
                                      std::size_t window) const {
  if (pair.sliding.span.metres < window) return {};
  const std::size_t positions =
      (pair.sliding.span.metres - window) / config_.stride_m + 1;

  // Coarse-to-fine: scan every coarse_stride-th position, then refine the
  // neighbourhood of the best coarse hit exhaustively. Only engaged when
  // the stride is wide enough to beat the exhaustive batched scan: below
  // the measured covering crossover the cheapest way to score a strided
  // grid IS the contiguous covering scan (see best_over_grid), which costs
  // the same as scoring every position — so a sparse pre-pass would only
  // add its refine pass on top. The quantized kernel scores any stride at
  // batch cost, so it engages coarse-to-fine for every stride > 1.
  const std::size_t coarse_floor =
      pair.precision == KernelPrecision::kFloat32 ? kCoveringScanMaxStrideM
                                                  : 1;
  if (config_.coarse_stride_m > 1 &&
      config_.coarse_stride_m * config_.stride_m > coarse_floor &&
      positions > 4 * config_.coarse_stride_m) {
    const std::size_t coarse = config_.coarse_stride_m;
    const std::size_t coarse_count = (positions + coarse - 1) / coarse;
    syn_metrics().windows.inc(coarse_count);
    const std::size_t metre_step = coarse * config_.stride_m;
    // Candidate::position is a fine-grid index here, not metres.
    const Candidate coarse_best =
        best_over_grid(pair, window, 0, coarse_count, metre_step, coarse);
    if (!coarse_best.valid) return {};
    const std::size_t lo =
        coarse_best.position > coarse ? coarse_best.position - coarse : 0;
    const std::size_t hi =
        std::min(positions, coarse_best.position + coarse + 1);
    syn_metrics().windows.inc(hi - lo);
    return best_over_positions(pair, window, lo, hi);
  }

  syn_metrics().windows.inc(positions);
  return best_over_positions(pair, window, 0, positions);
}

ScanPair SynSeeker::scan_pair(const PackedView& fixed,
                              std::size_t fixed_start,
                              const PackedView& sliding,
                              const QuantizedPack* qfixed,
                              const QuantizedPack* qsliding) const {
  ScanPair pair{config_.precision, fixed, fixed_start, sliding, {}, {}, {}, {}};
  if (config_.precision == KernelPrecision::kInt16) {
    pair.qfixed16 = {qfixed->span16(), fixed.rows};
    pair.qsliding16 = {qsliding->span16(), sliding.rows};
  } else if (config_.precision == KernelPrecision::kInt8) {
    pair.qfixed8 = {qfixed->span8(), fixed.rows};
    pair.qsliding8 = {qsliding->span8(), sliding.rows};
  }
  return pair;
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
    const PackedContext* pack_b, const QuantizedPack* qpack_a,
    const QuantizedPack* qpack_b, SeekScratch* scratch) const {
  SeekScratch local_scratch;
  SeekScratch& ws = scratch != nullptr ? *scratch : local_scratch;
  SynMetrics& metrics = syn_metrics();
  metrics.seeks.inc();
  obs::ObsTimer timer(&metrics.seek_us, "syn.seek");
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.record(obs::EventType::kSeekStarted, "syn.seek",
                  static_cast<double>(a.size()), static_cast<double>(b.size()),
                  static_cast<double>(recency_offset_m));
  plan_into(a, b, recency_offset_m, ws);
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

  // Quantized operands (below kFloat32 only). A pack-backed side serves
  // both roles from the caller's mirror when it mirrors the SAME pack
  // state; otherwise, and for every SubsetPack operand, the scanned span is
  // quantized one-shot into q_scratch, which outlives the scans.
  const bool quantized = config_.precision != KernelPrecision::kFloat32;
  const QuantBits bits = config_.precision == KernelPrecision::kInt8
                             ? QuantBits::kInt8
                             : QuantBits::kInt16;
  QuantizedPack q_scratch[4];
  std::size_t q_used = 0;
  const auto mirror_of = [&](const PackedSpan& span, const PackedContext* pack,
                             const QuantizedPack* mirror)
      -> const QuantizedPack* {
    if (!quantized) return nullptr;
    if (pack != nullptr && mirror != nullptr && mirror->mirrors(*pack, bits)) {
      return mirror;
    }
    QuantizedPack& q = q_scratch[q_used++];
    q.build(span, bits);
    return &q;
  };

  SubsetPack fixed_a, slide_b, fixed_b, slide_a;
  PackedView f1, s1, f2, s2;
  const QuantizedPack *qf1, *qs1, *qf2, *qs2;
  std::size_t f1_start = 0;
  std::size_t f2_start = 0;
  if (have_a) {
    f1 = {pack_a->span(), p.channels_a};
    f1_start = p.a_start;
    s2 = {pack_a->span(), p.channels_b};
    qf1 = qs2 = mirror_of(pack_a->span(), pack_a, qpack_a);
  } else {
    fixed_a = SubsetPack(a, p.channels_a, p.a_start, p.window);
    f1 = {fixed_a.span(), rows_ka};
    qf1 = mirror_of(fixed_a.span(), nullptr, nullptr);
    slide_a = SubsetPack(a, p.channels_b, 0, a.size());
    s2 = {slide_a.span(), rows_kb};
    qs2 = mirror_of(slide_a.span(), nullptr, nullptr);
  }
  if (have_b) {
    s1 = {pack_b->span(), p.channels_a};
    f2 = {pack_b->span(), p.channels_b};
    f2_start = p.b_start;
    qs1 = qf2 = mirror_of(pack_b->span(), pack_b, qpack_b);
  } else {
    slide_b = SubsetPack(b, p.channels_a, 0, b.size());
    s1 = {slide_b.span(), rows_ka};
    qs1 = mirror_of(slide_b.span(), nullptr, nullptr);
    fixed_b = SubsetPack(b, p.channels_b, p.b_start, p.window);
    f2 = {fixed_b.span(), rows_kb};
    qf2 = mirror_of(fixed_b.span(), nullptr, nullptr);
  }
  const ScanPair pass1 = scan_pair(f1, f1_start, s1, qf1, qs1);
  const ScanPair pass2 = scan_pair(f2, f2_start, s2, qf2, qs2);

  // Both correlation-scan passes share one kernel span: the child of
  // "syn.seek" that shows up in the paper's Fig. 10-12 cost breakdowns.
  obs::ObsTimer kernel_timer(&metrics.kernel_us, "syn.kernel");
  // Pass 1 (Fig 7 left): recent segment of A slides over B.
  const Candidate on_b = slide(pass1, p.window);
  // Pass 2 (Fig 7 right): recent segment of B slides over A.
  const Candidate on_a = slide(pass2, p.window);
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
  return best;
}

std::vector<SynPoint> SynSeeker::find(const ContextTrajectory& a,
                                      const ContextTrajectory& b,
                                      const PackedContext* pack_a,
                                      const PackedContext* pack_b,
                                      const QuantizedPack* qpack_a,
                                      const QuantizedPack* qpack_b) const {
  SeekScratch scratch;
  std::vector<SynPoint> out;
  find_into(a, b, pack_a, pack_b, qpack_a, qpack_b, scratch, out);
  return out;
}

void SynSeeker::find_into(const ContextTrajectory& a,
                          const ContextTrajectory& b,
                          const PackedContext* pack_a,
                          const PackedContext* pack_b,
                          const QuantizedPack* qpack_a,
                          const QuantizedPack* qpack_b, SeekScratch& scratch,
                          std::vector<SynPoint>& out) const {
  out.clear();
  for (std::size_t k = 0; k < std::max<std::size_t>(1, config_.syn_points);
       ++k) {
    const std::size_t offset = k * config_.syn_segment_spacing_m;
    const auto syn =
        find_one(a, b, offset, pack_a, pack_b, qpack_a, qpack_b, &scratch);
    if (syn.has_value()) out.push_back(*syn);
  }
  sort_best_first(out);
}

}  // namespace rups::core
