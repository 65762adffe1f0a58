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
  /// reach; see PackedContext).
  std::size_t volatile_suffix_m = PackedContext::kDefaultVolatileSuffixM;
  /// When false every query runs the full search (packs are still reused).
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
  /// into `out` (cleared first, capacity retained). A `local_pack` in sync
  /// with `local` is reused (FleetEngine shares one ego pack across all
  /// shards), as is `local_qpack` when it mirrors it below kFloat32;
  /// otherwise the cache maintains its own. Every search plans through the
  /// cache's scratch, so neither the warm tracking path nor a steady cold
  /// pair (out of radio range) allocates once the session is warm.
  void find_into(const ContextTrajectory& local,
                 const ContextTrajectory& neighbour,
                 const PackedContext* local_pack,
                 const QuantizedPack* local_qpack,
                 std::vector<SynPoint>& out);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct TrackOutcome {
    bool resolved = false;  ///< false = fall back to the full search
    std::optional<SynPoint> syn;
  };

  /// `local_q` / `neighbour_q` are quantized mirrors of the spans (null at
  /// kFloat32): the band re-verification then runs the same quantized
  /// kernel as the full search, so precision cannot split the two paths.
  /// Non-const: plans through the member scratch_ so warm re-verification
  /// never heap-allocates.
  [[nodiscard]] TrackOutcome verify_tracked(const ContextTrajectory& local,
                                            const ContextTrajectory& neighbour,
                                            std::size_t recency_offset_m,
                                            const PackedSpan& local_span,
                                            const PackedSpan& neighbour_span,
                                            const QuantizedPack* local_q,
                                            const QuantizedPack* neighbour_q);

  void update_lock(const ContextTrajectory& local,
                   const ContextTrajectory& neighbour,
                   const std::vector<SynPoint>& syns) noexcept;

  SynCacheConfig config_;
  SynSeeker seeker_;
  PackedContext local_pack_;
  PackedContext neighbour_pack_;
  /// Quantized mirrors, synced only when syn.precision != kFloat32.
  QuantizedPack local_q_;
  QuantizedPack neighbour_q_;
  bool locked_ = false;
  std::int64_t lock_offset_m_ = 0;
  Stats stats_;
  /// Planning workspace shared by the band and every full search.
  SynSeeker::SeekScratch scratch_;
};

}  // namespace rups::core
