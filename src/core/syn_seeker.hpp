#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/channel_select.hpp"
#include "core/correlation.hpp"
#include "core/packed.hpp"
#include "core/quant.hpp"
#include "core/types.hpp"

namespace rups::core {

/// Largest metre-stride at which best_over_grid scores a strided grid by
/// batching the contiguous COVERING metre range (discarding off-grid
/// lanes) instead of scoring grid points one by one. Measured crossover,
/// not the old hardcoded kLagBlock/2 rule: `bench_syn_kernel
/// --stride-crossover` times both strategies per stride at the paper
/// point and this constant records where per-position wins (DESIGN §11).
inline constexpr std::size_t kCoveringScanMaxStrideM = 6;

/// Parameters of the SYN-point search (paper Secs. IV-D, V-C, VI-B).
struct SynConfig {
  /// Checking-window length in metres (paper evaluates with 85 m and the
  /// complexity analysis uses 100 m).
  std::size_t window_m = 85;
  /// Checking-window width: number of strongest channels used (paper: 45).
  std::size_t top_channels = 45;
  /// Coherency threshold on the eq.(2) scale [-2, 2] (paper: 1.2).
  double coherency_threshold = 1.2;
  /// Slide stride in metres (1 = exhaustive, the paper's search).
  std::size_t stride_m = 1;
  /// Number of SYN points sought from successively older recent segments
  /// (Sec. VI-C: multiple SYN points tame passing-vehicle outliers).
  std::size_t syn_points = 1;
  /// Spacing between the recent segments used for multi-SYN (m).
  std::size_t syn_segment_spacing_m = 25;
  /// Adaptive window (Sec. V-C): when a context is shorter than window_m,
  /// shrink the window down to min_window_m and scale the threshold.
  bool adaptive_window = true;
  std::size_t min_window_m = 10;
  /// Treat only the post-turn straight tail of each context as usable for
  /// the RECENT fixed segment (Sec. V-C: after turning onto a new road the
  /// older context belongs to a different segment). Uses TurnDetector;
  /// combines with adaptive_window to answer fast right after a turn.
  bool respect_turns = false;
  /// Coarse-to-fine search: scan positions at coarse_stride_m, then refine
  /// exhaustively around the best coarse hit. Cuts the O(m*w*k) sweep by
  /// ~coarse_stride while finding the same peak when the correlation
  /// surface is unimodal near the optimum (it is: the field decorrelates
  /// within metres). 0/1 disables.
  std::size_t coarse_stride_m = 0;
  /// Threshold multiplier applied at min_window_m (linear in window size up
  /// to 1.0 at window_m). "Combined with a smaller threshold" — Sec. V-C.
  double adaptive_threshold_floor = 0.75;
  /// Kernel precision for every correlation scan this seeker issues.
  /// kFloat32 (default) is the strict bit-identical path; kInt16 / kInt8
  /// run the quantized GEMM-shaped kernel (bounded score error, DESIGN
  /// §15). Accept/reject plumbing (plan, thresholds, tie-breaks) is shared,
  /// so precision only changes scores, never search structure.
  KernelPrecision precision = KernelPrecision::kFloat32;
  TrajectoryCorrelationConfig correlation{};
};

/// One matched overlap between two context trajectories. Indices are the
/// START entries of the matched windows; the SYN location is the window
/// end. `correlation` is on the eq.(2) scale.
struct SynPoint {
  std::size_t index_a = 0;
  std::size_t index_b = 0;
  std::size_t window_m = 0;
  double correlation = -2.0;
};

/// Double-sliding cross-correlation search for SYN points (paper Fig 7):
/// the most recent window of trajectory A slides over all of B, then the
/// most recent window of B slides over all of A; the best position at or
/// above the coherency threshold wins. Complexity O(m * w * k) per recent
/// segment, single-threaded: parallelism lives one level up, per neighbour
/// (FleetEngine) and per shard (MatcherService).
///
/// The one seek core: SynCache's tracking band reuses plan_into(),
/// scan_pair() and accept() rather than copying them. Callers that query
/// repeatedly should pass pre-synced PackedContexts (and, below kFloat32,
/// their quantized mirrors); a null or stale pack or mirror is replaced
/// per call by subset packs or a one-shot quantization — correct, just
/// not amortized.
class SynSeeker {
 public:
  struct Candidate {
    double correlation = -2.0;
    std::size_t position = 0;
    bool valid = false;
  };

  /// Window sizing, threshold and channel selection for one recency
  /// offset. `reject != nullptr` means the search cannot run; the label is
  /// the flight-recorder reason ("syn.empty", "syn.no_window", ...).
  struct SeekPlan {
    std::size_t window = 0;
    double threshold = 0.0;
    std::size_t a_start = 0;
    std::size_t b_start = 0;
    std::vector<std::size_t> channels_a;
    std::vector<std::size_t> channels_b;
    const char* reject = nullptr;
    double reject_v1 = 0.0;
    double reject_v2 = 0.0;
  };

  /// Planning workspace: held across seeks, it keeps planning against
  /// stable-width trajectories allocation-free once warm.
  struct SeekScratch {
    SeekPlan plan;
    ChannelSelectScratch channels;
  };

  explicit SynSeeker(SynConfig config = {});

  /// Up to config.syn_points SYN points between two trajectories,
  /// best-correlation first. Empty if the trajectories are unrelated.
  [[nodiscard]] std::vector<SynPoint> find(
      const ContextTrajectory& a, const ContextTrajectory& b,
      const PackedContext* pack_a = nullptr,
      const PackedContext* pack_b = nullptr,
      const QuantizedPack* qpack_a = nullptr,
      const QuantizedPack* qpack_b = nullptr) const;

  /// find() through the caller's workspace into `out` (cleared first):
  /// find_one() at each offset k * syn_segment_spacing_m, best-first.
  void find_into(const ContextTrajectory& a, const ContextTrajectory& b,
                 const PackedContext* pack_a, const PackedContext* pack_b,
                 const QuantizedPack* qpack_a, const QuantizedPack* qpack_b,
                 SeekScratch& scratch, std::vector<SynPoint>& out) const;

  /// One double-sliding pass where the fixed recent segments END
  /// `recency_offset_m` metres before the newest entry; records the syn.*
  /// metrics and seek events. A null `scratch` plans through a temporary.
  [[nodiscard]] std::optional<SynPoint> find_one(
      const ContextTrajectory& a, const ContextTrajectory& b,
      std::size_t recency_offset_m = 0, const PackedContext* pack_a = nullptr,
      const PackedContext* pack_b = nullptr,
      const QuantizedPack* qpack_a = nullptr,
      const QuantizedPack* qpack_b = nullptr,
      SeekScratch* scratch = nullptr) const;

  /// Plan one recency offset into `scratch.plan` (every field reset,
  /// vector capacity kept), ranking through `scratch.channels`.
  void plan_into(const ContextTrajectory& a, const ContextTrajectory& b,
                 std::size_t recency_offset_m, SeekScratch& scratch) const;

  /// One pass's operands at this seeker's precision: the float views, plus
  /// below kFloat32 the views of their mirrors `qfixed` / `qsliding`.
  [[nodiscard]] ScanPair scan_pair(const PackedView& fixed,
                                   std::size_t fixed_start,
                                   const PackedView& sliding,
                                   const QuantizedPack* qfixed,
                                   const QuantizedPack* qsliding) const;

  /// The accept rule: the better of pass 1 (`on_b`, A's window placed in
  /// B) and pass 2 (`on_a`) at or above plan.threshold; pass 2 wins only
  /// on strictly greater correlation.
  [[nodiscard]] static std::optional<SynPoint> accept(const SeekPlan& plan,
                                                      const Candidate& on_b,
                                                      const Candidate& on_a);

  /// Best-correlation-first order of a SYN point list.
  static void sort_best_first(std::vector<SynPoint>& points);

  /// Best correlation over the slide-position indices [pos_lo, pos_hi) on
  /// the stride grid (position metres = index * stride_m); scored through
  /// the precision-dispatched kernel (pair.precision) in ascending
  /// kLagBlock-position blocks, ties resolve to the lowest position
  /// (bit-identical to a serial per-position scan at every precision).
  /// pos_hi is clamped to the valid position count. Used by the fine scan,
  /// the coarse-to-fine refinement, and SynCache's narrow tracking
  /// re-verification (whose ±verify_radius band is a single natural batch).
  [[nodiscard]] Candidate best_over_positions(const ScanPair& pair,
                                              std::size_t window,
                                              std::size_t pos_lo,
                                              std::size_t pos_hi) const;

  [[nodiscard]] const SynConfig& config() const noexcept { return config_; }

 private:
  /// Slide a fixed window (starting at pair.fixed_start in the fixed pack)
  /// across all of the sliding pack; returns the best position in metres.
  [[nodiscard]] Candidate slide(const ScanPair& pair,
                                std::size_t window) const;

  /// Shared scan core: best over grid indices [grid_lo, grid_hi), where
  /// grid index q scores slide position q * metre_step metres and reports
  /// Candidate::position = q * index_step. The fine scan uses metre_step =
  /// index_step = stride_m (position in metres); the coarse scan uses
  /// metre_step = coarse*stride_m with index_step = coarse (position as a
  /// fine-grid INDEX, which is what the refinement stage consumes).
  /// Ascending blocks of kLagBlock positions through
  /// scan_correlation_batch; the trailing partial block is rescored as an
  /// overlapped full block — recomputed lanes are bit-identical and an
  /// equal score can never displace an earlier (lower) position, so the
  /// lowest-position tie-break survives.
  [[nodiscard]] Candidate best_over_grid(const ScanPair& pair,
                                         std::size_t window,
                                         std::size_t grid_lo,
                                         std::size_t grid_hi,
                                         std::size_t metre_step,
                                         std::size_t index_step) const;

  SynConfig config_;
  /// Identity row map 0..top_channels-1, built once so fallback seeks
  /// (SubsetPack views) don't heap-allocate per call; find_one takes
  /// prefix subspans of it (plan_into caps both channel lists at
  /// top_channels).
  std::vector<std::size_t> identity_rows_;
};

}  // namespace rups::core
