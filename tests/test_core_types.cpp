#include "core/types.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "util/rng.hpp"

namespace rups::core {
namespace {

TEST(PowerVector, StartsAllMissing) {
  PowerVector pv(10);
  EXPECT_EQ(pv.channels(), 10u);
  EXPECT_EQ(pv.usable_count(), 0u);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_FALSE(pv.usable(c));
    EXPECT_EQ(pv.state(c), ChannelState::kMissing);
  }
}

TEST(PowerVector, SetAndStates) {
  PowerVector pv(5);
  pv.set(0, -70.0f);
  pv.set(2, -80.0f, ChannelState::kInterpolated);
  EXPECT_TRUE(pv.usable(0));
  EXPECT_TRUE(pv.measured(0));
  EXPECT_TRUE(pv.usable(2));
  EXPECT_FALSE(pv.measured(2));
  EXPECT_EQ(pv.usable_count(), 2u);
  EXPECT_EQ(pv.measured_count(), 1u);
  EXPECT_FLOAT_EQ(pv.at(0), -70.0f);
}

TEST(PowerVector, SetOutOfRangeThrows) {
  PowerVector pv(3);
  EXPECT_THROW(pv.set(3, -70.0f), std::out_of_range);
}

TEST(PowerVector, MeanUsable) {
  PowerVector pv(4);
  EXPECT_DOUBLE_EQ(pv.mean_usable(), 0.0);
  pv.set(0, -60.0f);
  pv.set(1, -80.0f);
  EXPECT_DOUBLE_EQ(pv.mean_usable(), -70.0);
}

TEST(ContextTrajectory, RejectsZeroDims) {
  EXPECT_THROW(ContextTrajectory(0, 10), std::invalid_argument);
  EXPECT_THROW(ContextTrajectory(10, 0), std::invalid_argument);
}

TEST(ContextTrajectory, AppendAndIndex) {
  ContextTrajectory traj(4, 100);
  EXPECT_TRUE(traj.empty());
  traj.append(GeoSample{0.1, 1.0}, PowerVector(4));
  traj.append(GeoSample{0.2, 2.0}, PowerVector(4));
  EXPECT_EQ(traj.size(), 2u);
  EXPECT_DOUBLE_EQ(traj.geo(1).heading_rad, 0.2);
  EXPECT_DOUBLE_EQ(traj.distance_at(0), 0.0);
  EXPECT_DOUBLE_EQ(traj.distance_at(1), 1.0);
  EXPECT_DOUBLE_EQ(traj.end_distance_m(), 1.0);
}

TEST(ContextTrajectory, WidthMismatchThrows) {
  ContextTrajectory traj(4, 100);
  EXPECT_THROW(traj.append(GeoSample{}, PowerVector(5)),
               std::invalid_argument);
}

TEST(ContextTrajectory, CapacityEvictsOldest) {
  ContextTrajectory traj(2, 3);
  for (int i = 0; i < 5; ++i) {
    PowerVector pv(2);
    pv.set(0, static_cast<float>(-100 + i));
    traj.append(GeoSample{0.0, static_cast<double>(i)}, std::move(pv));
  }
  EXPECT_EQ(traj.size(), 3u);
  EXPECT_EQ(traj.first_metre(), 2u);
  EXPECT_FLOAT_EQ(traj.power(0).at(0), -98.0f);  // entry for metre 2
  EXPECT_DOUBLE_EQ(traj.distance_at(0), 2.0);
  EXPECT_DOUBLE_EQ(traj.end_distance_m(), 4.0);
}

TEST(ContextTrajectory, MetreLookup) {
  ContextTrajectory traj(2, 3);
  for (int i = 0; i < 5; ++i) traj.append(GeoSample{}, PowerVector(2));
  EXPECT_FALSE(traj.contains_metre(1));
  EXPECT_TRUE(traj.contains_metre(2));
  EXPECT_TRUE(traj.contains_metre(4));
  EXPECT_FALSE(traj.contains_metre(5));
  EXPECT_EQ(traj.index_of_metre(3), 1u);
}

TEST(ContextTrajectory, MeasuredFraction) {
  ContextTrajectory traj(2, 10);
  PowerVector full(2);
  full.set(0, -70.0f);
  full.set(1, -70.0f);
  PowerVector half(2);
  half.set(0, -70.0f);
  half.set(1, -70.0f, ChannelState::kInterpolated);  // not "measured"
  traj.append(GeoSample{}, std::move(full));
  traj.append(GeoSample{}, std::move(half));
  EXPECT_DOUBLE_EQ(traj.measured_fraction(), 0.75);
}

TEST(ContextTrajectory, MutablePowerRetrofill) {
  ContextTrajectory traj(2, 10);
  traj.append(GeoSample{}, PowerVector(2));
  traj.mutable_power(0).set(1, -55.0f);
  EXPECT_TRUE(traj.power(0).usable(1));
  EXPECT_FLOAT_EQ(traj.power(0).at(1), -55.0f);
}

TEST(ContextTrajectory, IdentityChangesOnlyWhenContentsAreReplaced) {
  ContextTrajectory a(2, 4);
  ContextTrajectory b(2, 4);
  EXPECT_NE(a.identity(), 0u);
  EXPECT_NE(a.identity(), b.identity());

  // Appends, evictions and splices extend the same contents.
  const std::uint64_t id = a.identity();
  for (int i = 0; i < 6; ++i) a.append(GeoSample{}, PowerVector(2));
  PowerVector spare = a.append_evict(GeoSample{}, PowerVector(2));
  ContextTrajectory tail(2, 4);
  tail.append(GeoSample{}, PowerVector(2));
  tail.rebase(a.first_metre() + a.size());
  ASSERT_TRUE(a.splice_tail(tail));
  EXPECT_EQ(a.identity(), id);
  EXPECT_EQ(a.revision(), 0u);

  // An in-place edit bumps the revision, not the identity.
  a.mutable_power(1).set(0, -60.0f);
  EXPECT_EQ(a.identity(), id);
  EXPECT_EQ(a.revision(), 1u);

  // Copies, moves, assignments and rebases all mint a new identity, at
  // both ends of a move.
  const ContextTrajectory copy = a;
  EXPECT_NE(copy.identity(), id);
  b = a;
  EXPECT_NE(b.identity(), id);
  EXPECT_NE(b.identity(), copy.identity());
  const std::uint64_t b_id = b.identity();
  ContextTrajectory moved = std::move(b);
  EXPECT_NE(moved.identity(), b_id);
  EXPECT_NE(b.identity(), b_id);  // NOLINT(bugprone-use-after-move)
  const std::uint64_t moved_id = moved.identity();
  moved = std::move(a);
  EXPECT_NE(moved.identity(), moved_id);
  EXPECT_NE(moved.identity(), id);
  const std::uint64_t before_rebase = moved.identity();
  moved.rebase(1000);
  EXPECT_NE(moved.identity(), before_rebase);
}

TEST(PowerVector, ResetRecyclesToAllMissing) {
  PowerVector pv(3);
  pv.set(0, -60.0f);
  pv.set(2, -70.0f, ChannelState::kInterpolated);
  pv.reset();
  EXPECT_EQ(pv.channels(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_FALSE(pv.usable(c));
    EXPECT_EQ(pv.state(c), ChannelState::kMissing);
  }
  // A reset vector behaves like a fresh one.
  pv.set(1, -50.0f);
  EXPECT_TRUE(pv.usable(1));
  EXPECT_FLOAT_EQ(pv.at(1), -50.0f);
}

TEST(ContextTrajectory, AppendEvictReturnsDisplacedBuffer) {
  ContextTrajectory traj(2, 3);
  // Below capacity: nothing is displaced; the returned vector is empty-width.
  for (int i = 0; i < 3; ++i) {
    PowerVector pv(2);
    pv.set(0, static_cast<float>(-60 - i));
    const PowerVector evicted =
        traj.append_evict(GeoSample{0.0, static_cast<double>(i)},
                          std::move(pv));
    EXPECT_EQ(evicted.channels(), 0u);
  }
  // At capacity: the oldest metre's vector comes back (content intact —
  // callers recycle it by copy-assigning the next sample over it).
  PowerVector pv(2);
  pv.set(0, -70.0f);
  PowerVector evicted = traj.append_evict(GeoSample{0.0, 3.0}, std::move(pv));
  EXPECT_EQ(evicted.channels(), 2u);
  EXPECT_FLOAT_EQ(evicted.at(0), -60.0f);
  EXPECT_EQ(traj.size(), 3u);
  EXPECT_FLOAT_EQ(traj.power(2).at(0), -70.0f);
  EXPECT_FLOAT_EQ(traj.power(0).at(0), -61.0f);
  // reset() makes the recycled buffer indistinguishable from a fresh one.
  evicted.reset();
  EXPECT_FALSE(evicted.usable(0));
  EXPECT_EQ(evicted.channels(), 2u);
}

TEST(ContextTrajectory, AppendEvictMatchesADequeReference) {
  // Random appends far past capacity, for capacities 1, 2, 7 and 64: every
  // retained metre, the indexing and each displaced buffer equal a deque
  // that pushes at the back and pops at the front.
  util::Rng rng(77);
  for (const std::size_t capacity : {1, 2, 7, 64}) {
    SCOPED_TRACE(capacity);
    ContextTrajectory traj(3, capacity);
    std::deque<std::pair<double, float>> ref;  // (time, channel-1 dBm)
    const std::size_t appends = 5 * capacity + 3;
    for (std::size_t n = 0; n < appends; ++n) {
      const auto dbm = static_cast<float>(-110.0 + 60.0 * rng.uniform());
      const double time = rng.uniform() * 1e3;
      PowerVector pv(3);
      pv.set(1, dbm);
      const PowerVector evicted =
          traj.append_evict(GeoSample{0.5, time}, std::move(pv));
      ref.emplace_back(time, dbm);
      if (ref.size() > capacity) {
        ASSERT_EQ(evicted.channels(), 3u);
        EXPECT_EQ(evicted.at(1), ref.front().second);
        ref.pop_front();
      } else {
        EXPECT_EQ(evicted.channels(), 0u);
      }
      ASSERT_EQ(traj.size(), ref.size());
      EXPECT_EQ(traj.first_metre(), n + 1 - ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(traj.geo(i).time_s, ref[i].first) << n << " " << i;
        EXPECT_EQ(traj.power(i).at(1), ref[i].second) << n << " " << i;
        EXPECT_TRUE(traj.power(i).usable(1));
        EXPECT_FALSE(traj.power(i).usable(0));
      }
    }
    // An edit through mutable_power lands on the same retained metre.
    traj.mutable_power(capacity - 1).set(2, -1.0f);
    EXPECT_EQ(traj.power(capacity - 1).at(1), ref.back().second);
    EXPECT_TRUE(traj.power(capacity - 1).usable(2));
  }
}

// --- splice_tail: beacon-diff redelivery semantics -------------------------
//
// The streaming beacon protocol re-delivers tails after channel reorder and
// duplication, so splice_tail must be idempotent under overlap and must keep
// first_seq_ consistent with absolute odometer metres in every adopt path.

namespace {

/// Tail [first, first + n) with a recognisable per-metre value.
ContextTrajectory make_tail(std::size_t channels, std::size_t capacity,
                            std::uint64_t first, std::size_t n) {
  ContextTrajectory tail(channels, capacity);
  for (std::size_t i = 0; i < n; ++i) {
    PowerVector pv(channels);
    pv.set(0, static_cast<float>(-(100.0 + static_cast<double>(first + i))));
    tail.append(GeoSample{0.0, static_cast<double>(first + i)}, std::move(pv));
  }
  tail.rebase(first);
  return tail;
}

/// Trajectory metre-for-metre equal (geo time, power ch0, indexing)?
void expect_same(const ContextTrajectory& a, const ContextTrajectory& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.first_metre(), b.first_metre());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.geo(i).time_s, b.geo(i).time_s) << "metre " << i;
    EXPECT_FLOAT_EQ(a.power(i).at(0), b.power(i).at(0)) << "metre " << i;
  }
}

}  // namespace

TEST(SpliceTail, DuplicateRedeliveryIsIdempotent) {
  ContextTrajectory cache(2, 100);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 0, 20)));
  const ContextTrajectory tail = make_tail(2, 100, 12, 8);
  ASSERT_TRUE(cache.splice_tail(tail));  // fully-overlapping duplicate
  EXPECT_EQ(cache.size(), 20u);
  EXPECT_EQ(cache.first_metre(), 0u);
  ASSERT_TRUE(cache.splice_tail(tail));  // re-delivered again
  EXPECT_EQ(cache.size(), 20u);
  expect_same(cache, make_tail(2, 100, 0, 20));
}

TEST(SpliceTail, OverlappingTailKeepsOursAppendsRest) {
  ContextTrajectory cache(2, 100);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 0, 10)));
  // Mark our copy of metre 8 so we can prove the overlap kept it.
  cache.mutable_power(8).set(1, -42.0f);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 6, 10)));  // [6, 16)
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.first_metre(), 0u);
  EXPECT_FLOAT_EQ(cache.power(8).at(1), -42.0f);  // ours survived
  EXPECT_FLOAT_EQ(cache.power(15).at(0), -115.0f);
}

TEST(SpliceTail, GapRejectsAndLeavesCacheUntouched) {
  ContextTrajectory cache(2, 100);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 0, 10)));
  EXPECT_FALSE(cache.splice_tail(make_tail(2, 100, 11, 5)));  // hole at 10
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_EQ(cache.first_metre(), 0u);
}

TEST(SpliceTail, AdoptIntoEmptyTakesTailIndexing) {
  ContextTrajectory cache(2, 100);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 500, 10)));
  EXPECT_EQ(cache.first_metre(), 500u);
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_DOUBLE_EQ(cache.end_distance_m(), 509.0);
}

TEST(SpliceTail, AdoptIntoEmptyOversizedTailKeepsNewestWindow) {
  ContextTrajectory cache(2, 8);  // capacity below the tail length
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 40, 20)));  // [40, 60)
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.first_metre(), 52u);  // newest 8 of [40, 60)
  EXPECT_FLOAT_EQ(cache.power(0).at(0), -152.0f);
  EXPECT_FLOAT_EQ(cache.power(7).at(0), -159.0f);
}

// Regression: an EMPTY trajectory with a non-zero odometer base (rebase(),
// the codec's receiver-side reconstruction path) adopted a tail by ADDING
// the tail's first metre to the stale base instead of replacing it,
// desynchronizing first_seq_ — every later distance_at/contains_metre and
// watermark computed from the splice was shifted by the stale base.
TEST(SpliceTail, AdoptIntoRebasedEmptyDoesNotDoubleCountBase) {
  ContextTrajectory cache(2, 100);
  cache.rebase(300);  // empty but with a non-zero odometer base
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 500, 10)));
  EXPECT_EQ(cache.first_metre(), 500u);  // was 800 before the fix
  EXPECT_TRUE(cache.contains_metre(505));
  EXPECT_DOUBLE_EQ(cache.end_distance_m(), 509.0);
}

TEST(SpliceTail, AtCapacityDuplicateThenExtension) {
  ContextTrajectory cache(2, 10);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 0, 10)));  // full window
  const ContextTrajectory dup = make_tail(2, 100, 4, 6);     // stale dup
  ASSERT_TRUE(cache.splice_tail(dup));
  EXPECT_EQ(cache.first_metre(), 0u);  // duplicate must not advance window
  EXPECT_EQ(cache.size(), 10u);
  // Extension past capacity advances the window exactly by the new metres.
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 8, 6)));  // [8, 14)
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_EQ(cache.first_metre(), 4u);
  EXPECT_FLOAT_EQ(cache.power(9).at(0), -113.0f);
}

TEST(SpliceTail, ReorderedRedeliveryConvergesToInOrderResult) {
  // Deliver tails out of order with duplicates, as the fault channel's
  // reorder/duplicate impairments produce them; the cache must converge to
  // the same window an in-order append stream yields.
  ContextTrajectory cache(2, 12);
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 0, 8)));    // [0, 8)
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 6, 6)));    // [6, 12)
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 2, 4)));    // stale dup
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 6, 6)));    // dup again
  ASSERT_TRUE(cache.splice_tail(make_tail(2, 100, 12, 4)));   // [12, 16)
  expect_same(cache, make_tail(2, 12, 4, 12));
}

}  // namespace
}  // namespace rups::core
