#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace rups::util {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto fut = pool.submit([&] { counter.fetch_add(1); });
  fut.get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    n.fetch_add(1);
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ParallelForReduction) {
  ThreadPool pool(4);
  std::vector<long> partial(4000);
  pool.parallel_for(0, partial.size(),
                    [&](std::size_t i) { partial[i] = static_cast<long>(i); });
  const long sum = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(sum, 4000L * 3999L / 2);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 50) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, OversizedCallableTakesBoxedPath) {
  // Callables beyond the inline task-slot buffer fall back to a heap box;
  // results and exception plumbing must be identical.
  ThreadPool pool(2);
  std::array<char, 256> payload{};
  payload.fill(7);
  std::atomic<int> sum{0};
  auto fut = pool.submit([payload, &sum] {
    int s = 0;
    for (const char c : payload) s += c;
    sum.store(s);
  });
  fut.get();
  EXPECT_EQ(sum.load(), 256 * 7);

  auto thrower = pool.submit([payload] {
    (void)payload;
    throw std::runtime_error("boxed boom");
  });
  EXPECT_THROW(thrower.get(), std::runtime_error);
}

TEST(ThreadPool, RingBackpressureBlocksUntilSpaceThenRunsEverything) {
  // Many more tasks than ring slots: submit() must block (not drop, not
  // grow) until workers free slots, and every task must still run.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  futs.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    futs.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 5000);
}

TEST(ThreadPool, ParallelForRunsAllChunksEvenWhenOneThrows) {
  // The join must wait for every chunk before rethrowing — the chunk
  // callbacks reference the caller's stack frame. Throwing at the global
  // last index means every index was visited despite the exception.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(512);
  try {
    pool.parallel_for(0, hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == hits.size() - 1) throw std::runtime_error("last item");
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error&) {
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

// Each worker starts on its own CPU but ends up with its creator's whole
// affinity set, also when the creator is narrowed: the pool never pins.
TEST(ThreadPool, WorkersKeepTheirCreatorsAffinity) {
  cpu_set_t all;
  CPU_ZERO(&all);
  ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
  if (CPU_COUNT(&all) < 2) GTEST_SKIP() << "needs two CPUs";
  struct Restore {
    cpu_set_t set;
    ~Restore() { (void)sched_setaffinity(0, sizeof set, &set); }
  } restore{all};
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < 2; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &two);
      ++n;
    }
  }
  for (const cpu_set_t* creator : {&all, &two}) {
    ASSERT_EQ(sched_setaffinity(0, sizeof *creator, creator), 0);
    constexpr std::size_t kWorkers = 3;
    std::array<cpu_set_t, kWorkers> seen{};
    {
      ThreadPool pool(kWorkers);
      // Every task waits for the others, so each runs on its own worker.
      std::latch all_started(kWorkers);
      pool.parallel_for(0, kWorkers, [&](std::size_t i) {
        all_started.arrive_and_wait();
        (void)sched_getaffinity(0, sizeof seen[i], &seen[i]);
      });
    }
    for (const cpu_set_t& s : seen) EXPECT_TRUE(CPU_EQUAL(&s, creator));
  }
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
    // Destructor must join without losing queued work being processed or
    // deadlocking. (Queued tasks may or may not all run; just no crash.)
  }
  SUCCEED();
}

}  // namespace
}  // namespace rups::util
