#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/channel_select.hpp"
#include "core/correlation.hpp"
#include "core/packed.hpp"
#include "core/types.hpp"

namespace rups::core {

/// Correlation kernel precision. Every seek runs the float kernel, so
/// validate() accepts kFloat32 only; the integer enumerators stay only
/// because perfbench's config echo names them, and go with that echo.
enum class KernelPrecision : std::uint8_t { kFloat32, kInt16, kInt8 };

/// Parameters of the SYN-point search (paper Secs. IV-D, V-C, VI-B).
struct SynConfig {
  /// Checking-window length in metres (paper evaluates with 85 m and the
  /// complexity analysis uses 100 m).
  std::size_t window_m = 85;
  /// Checking-window width: number of strongest channels used (paper: 45).
  std::size_t top_channels = 45;
  /// Coherency threshold on the eq.(2) scale [-2, 2] (paper: 1.2).
  double coherency_threshold = 1.2;
  /// Pinned to 1: every seek scans every metre (the paper's exhaustive
  /// search), and validate() rejects any other value. The field stays only
  /// because perfbench's config echo prints it; it goes with that echo.
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
  /// Pinned off: 0 and 1 both mean "no coarse pre-pass", and validate()
  /// rejects anything larger. Kept, like stride_m, only for perfbench's
  /// config echo.
  std::size_t coarse_stride_m = 0;
  /// Threshold multiplier applied at min_window_m (linear in window size up
  /// to 1.0 at window_m). "Combined with a smaller threshold" — Sec. V-C.
  double adaptive_threshold_floor = 0.75;
  /// Pinned to kFloat32, like stride_m: validate() rejects the rest.
  KernelPrecision precision = KernelPrecision::kFloat32;
  TrajectoryCorrelationConfig correlation{};
};

/// Rejects a SynConfig no seek could run with std::invalid_argument:
/// stride_m != 1, coarse_stride_m > 1 or a precision other than
/// kFloat32. SynSeeker, FleetEngine and MatcherService call it at
/// construction so a bad config fails before any state changes.
void validate(const SynConfig& config);

/// One fixed/sliding operand pair of a scan: the fixed window starts at
/// metre `fixed_start` of `fixed` and slides over `sliding`.
struct ScanPair {
  PackedView fixed{};
  std::size_t fixed_start = 0;
  PackedView sliding{};
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

/// Rank `t`'s recent checking windows once for a round: slot k holds the
/// window of full length window_m ending k * syn_segment_spacing_m metres
/// before the newest entry (k < syn_points), the window every plan on `t`
/// uses unless a context is too short or turn-limited. A window that does
/// not fit is skipped; a slot already holding its window of the same
/// trajectory state is kept as is. `pack`, when in sync with `t`, supplies
/// the coverage counts (see select_top_channels_into).
void rank_recent_windows(const ContextTrajectory& t, const SynConfig& config,
                         WindowRanks& ranks, ChannelSelectScratch& scratch,
                         const PackedContext* pack = nullptr);

/// Double-sliding cross-correlation search for SYN points (paper Fig 7):
/// the most recent window of trajectory A slides over all of B, then the
/// most recent window of B slides over all of A; the best position at or
/// above the coherency threshold wins. Complexity O(m * w * k) per recent
/// segment in the worst case, single-threaded: parallelism lives one level
/// up, per neighbour (FleetEngine) and per shard (MatcherService).
///
/// The two passes are an exact pruned search (DESIGN §11): a 16-lane
/// block stops once none of its lanes can reach the best score so far,
/// capped at 1.5 so that the cost barely depends on how well the
/// trajectories match. Pass 1 scores first the block where the last SYN
/// point accepted through the same SeekScratch predicts the match, and
/// pass 2 is held to pass 1's score when pass 1 was accepted. The SYN
/// points are the unpruned search's, bit for bit; only the time depends on
/// the hint.
///
/// The one seek core: SynCache's tracking band reuses plan_into(),
/// best_over_positions() and accept() rather than copying them. Callers
/// that query repeatedly should pass pre-synced PackedContexts and, for a
/// trajectory several queries share, its held window ranking; a null or
/// stale pack or ranking is replaced per call by subset packs or an
/// in-place ranking — correct, just not amortized.
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
    /// (a − b) odometer offset, (a.first_metre() + index_a) −
    /// (b.first_metre() + index_b) wrapped mod 2^64, of the last SYN point
    /// a seek through this scratch accepted: pass 1's seed. SynCache also
    /// sets it from its lock, and clears it while disabled. A stale or
    /// shared hint (another neighbour's) only costs time.
    std::optional<std::uint64_t> last_offset_m;
  };

  /// Optional exact pruning of a best_over_positions scan.
  struct Pruning {
    /// A result that does not strictly beat this score is dropped.
    double bar = -std::numeric_limits<double>::infinity();
    /// Position whose block is scored first (clamped into the range).
    std::optional<std::size_t> seed;
  };

  explicit SynSeeker(SynConfig config = {});

  /// Up to config.syn_points SYN points between two trajectories,
  /// best-correlation first. Empty if the trajectories are unrelated.
  [[nodiscard]] std::vector<SynPoint> find(
      const ContextTrajectory& a, const ContextTrajectory& b,
      const PackedContext* pack_a = nullptr,
      const PackedContext* pack_b = nullptr) const;

  /// find() through the caller's workspace into `out` (cleared first):
  /// find_one() at each offset k * syn_segment_spacing_m, best-first.
  /// `ranks_a` / `ranks_b` are optional held window rankings (see
  /// plan_into).
  void find_into(const ContextTrajectory& a, const ContextTrajectory& b,
                 const PackedContext* pack_a, const PackedContext* pack_b,
                 SeekScratch& scratch, std::vector<SynPoint>& out,
                 const WindowRanks* ranks_a = nullptr,
                 const WindowRanks* ranks_b = nullptr) const;

  /// One double-sliding pass where the fixed recent segments END
  /// `recency_offset_m` metres before the newest entry; records the syn.*
  /// metrics and seek events. A null `scratch` plans through a temporary.
  [[nodiscard]] std::optional<SynPoint> find_one(
      const ContextTrajectory& a, const ContextTrajectory& b,
      std::size_t recency_offset_m = 0, const PackedContext* pack_a = nullptr,
      const PackedContext* pack_b = nullptr, SeekScratch* scratch = nullptr,
      const WindowRanks* ranks_a = nullptr,
      const WindowRanks* ranks_b = nullptr) const;

  /// Plan one recency offset into `scratch.plan` (every field reset,
  /// vector capacity kept). Each side's channels come from `ranks_a` /
  /// `ranks_b` when it holds exactly the plan's window of that trajectory
  /// state (see rank_recent_windows); otherwise they are ranked in place
  /// through `scratch.channels`, counting coverage from `pack_a` / `pack_b`
  /// when in sync. The plan is the same either way.
  void plan_into(const ContextTrajectory& a, const ContextTrajectory& b,
                 std::size_t recency_offset_m, SeekScratch& scratch,
                 const PackedContext* pack_a = nullptr,
                 const PackedContext* pack_b = nullptr,
                 const WindowRanks* ranks_a = nullptr,
                 const WindowRanks* ranks_b = nullptr) const;

  /// The accept rule: the better of pass 1 (`on_b`, A's window placed in
  /// B) and pass 2 (`on_a`) at or above plan.threshold; pass 2 wins only
  /// on strictly greater correlation.
  [[nodiscard]] static std::optional<SynPoint> accept(const SeekPlan& plan,
                                                      const Candidate& on_b,
                                                      const Candidate& on_a);

  /// Best-correlation-first order of a SYN point list.
  static void sort_best_first(std::vector<SynPoint>& points);

  /// Best correlation over the slide positions [pos_lo, pos_hi) metres,
  /// scored by packed_correlation_batch in ascending chunks; ties resolve
  /// to the lowest position (bit-identical to a serial per-position scan).
  /// pos_hi is clamped to the valid position count. Used by the full
  /// search's two passes and by SynCache's ±verify_radius tracking band.
  /// With `pruning` the scan runs packed_best_pruned: the same candidate
  /// when it strictly beats pruning->bar, an invalid one otherwise.
  [[nodiscard]] Candidate best_over_positions(
      const ScanPair& pair, std::size_t window, std::size_t pos_lo,
      std::size_t pos_hi, const Pruning* pruning = nullptr) const;

  [[nodiscard]] const SynConfig& config() const noexcept { return config_; }

 private:
  SynConfig config_;
  /// Identity row map 0..top_channels-1, built once so fallback seeks
  /// (SubsetPack views) don't heap-allocate per call; find_one takes
  /// prefix subspans of it (plan_into caps both channel lists at
  /// top_channels).
  std::vector<std::size_t> identity_rows_;
};

}  // namespace rups::core
