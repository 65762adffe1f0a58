#pragma once

// SYN caching (tracking mode). The paper re-runs the full double-sliding
// search for every query; between two queries a few seconds apart the
// matched alignment between two trajectories barely moves — both vehicles
// simply appended metres, so the locked (local − neighbour) odometer offset
// of the last accepted SYN point is an excellent predictor of where the
// next one lands. SynCache remembers that offset plus incrementally-packed
// correlation windows and, on the next query, re-verifies the correlation
// peak in a narrow band around the prediction. The re-verification uses
// the exact search plan (adaptive window, threshold, channel selection) and
// the exact kernel of the full search, so an accepted tracked SYN point is
// one the full search could also have produced, judged against the same
// coherency threshold (1.2 by default). Any miss — band empty, peak below
// threshold — falls back to the full SynSeeker search for that offset.
// Steady-state per-query cost drops from O(m·w·k) to O(radius·w·k).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/packed.hpp"
#include "core/syn_seeker.hpp"

namespace rups::core {

struct SynCacheConfig {
  /// Half-width (in slide positions) of the re-verification band around the
  /// predicted alignment. Covers inter-query odometer drift.
  std::size_t verify_radius_m = 12;
  /// Trailing region of each pack re-packed every sync (binder retro-fill
  /// reach; see PackedContext). FleetEngine raises it to
  /// pack_volatile_suffix_m() of its binder config.
  std::size_t volatile_suffix_m = PackedContext::kDefaultVolatileSuffixM;
  /// When false every query runs the full search (packs are still reused),
  /// with no alignment carried between queries, not even as a seed.
  bool enabled = true;
};

/// Per-neighbour SYN search cache. Not thread-safe: one instance serves one
/// (local, neighbour) pair from one thread at a time — FleetEngine shards
/// one SynCache per neighbour id.
class SynCache {
 public:
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t tracking_hits = 0;    ///< offsets resolved by the band
    std::uint64_t tracking_misses = 0;  ///< band failed -> full fallback
    std::uint64_t full_searches = 0;    ///< full find_one runs (incl. cold)
    std::uint64_t invalidations = 0;    ///< lock dropped (query found no SYN)
  };

  explicit SynCache(SynConfig syn = {}, SynCacheConfig config = {});

  /// Drop-in equivalent of SynSeeker(syn).find(local, neighbour), written
  /// into `out` (cleared first, capacity retained). The ego side is the
  /// caller's: `local_pack` must be in sync with `local` (FleetEngine
  /// shares one across all shards); otherwise std::invalid_argument, before
  /// any state changes. A `neighbour_pack` in sync with `neighbour` wins
  /// over the cache's own copy (MatcherService packs each vehicle once per
  /// drain).
  /// `local_ranks` / `neighbour_ranks` are window rankings prepared once
  /// per round (FleetEngine's ego ranking, MatcherService's per-vehicle
  /// ones); a plan whose window they do not hold ranks in place.
  /// Every search plans through the cache's scratch, so neither the warm
  /// tracking path nor a steady cold pair (out of radio range) allocates
  /// once the session is warm.
  void find_into(const ContextTrajectory& local,
                 const ContextTrajectory& neighbour,
                 const PackedContext* local_pack, std::vector<SynPoint>& out,
                 const PackedContext* neighbour_pack = nullptr,
                 const WindowRanks* local_ranks = nullptr,
                 const WindowRanks* neighbour_ranks = nullptr);

  /// The same query through the call shape that still passes a null in a
  /// fourth slot: perfbench's stream_urban calls it so. It goes when that
  /// caller is next edited.
  void find_into(const ContextTrajectory& local,
                 const ContextTrajectory& neighbour,
                 const PackedContext* local_pack, std::nullptr_t,
                 std::vector<SynPoint>& out) {
    find_into(local, neighbour, local_pack, out);
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct TrackOutcome {
    bool resolved = false;  ///< false = fall back to the full search
    std::optional<SynPoint> syn;
  };

  /// Both packs are in sync with their trajectories.
  /// Non-const: plans through the member scratch_ so warm re-verification
  /// never heap-allocates.
  [[nodiscard]] TrackOutcome verify_tracked(const ContextTrajectory& local,
                                            const ContextTrajectory& neighbour,
                                            std::size_t recency_offset_m,
                                            const PackedContext& local_pack,
                                            const PackedContext& neighbour_pack,
                                            const WindowRanks* local_ranks,
                                            const WindowRanks* neighbour_ranks);

  void update_lock(const ContextTrajectory& local,
                   const ContextTrajectory& neighbour,
                   const std::vector<SynPoint>& syns) noexcept;

  SynCacheConfig config_;
  SynSeeker seeker_;
  /// Own neighbour pack, synced only when the caller passes none in sync.
  PackedContext neighbour_pack_;
  bool locked_ = false;
  /// (local − neighbour) odometer metre of the last accepted SYN point,
  /// wrapped mod 2^64 so any pair of first_metre() values is defined.
  std::uint64_t lock_offset_m_ = 0;
  Stats stats_;
  /// Planning workspace shared by the band and every full search.
  SynSeeker::SeekScratch scratch_;
};

}  // namespace rups::core
