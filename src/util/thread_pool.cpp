#include "util/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <exception>

namespace rups::util {

namespace {

/// Start the calling worker on the `i`-th CPU its creator may run on, then
/// give it the creator's whole set back, so the scheduler stays free to
/// move it. Where the OS does not spread a new process's threads, a pool
/// otherwise sits on its creator's CPU: on a 4-vCPU VM whole perfbench
/// city_rounds processes ran every pool thread on one CPU, at about twice
/// the drain time of a spread run.
void spread_start(std::size_t i) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const auto n = static_cast<std::size_t>(CPU_COUNT(&allowed));
  if (n <= 1) return;
  std::size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != i % n) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // The first call moves the worker onto `cpu`; the second only widens
    // its mask again.
    if (sched_setaffinity(0, sizeof one, &one) == 0) {
      (void)sched_setaffinity(0, sizeof allowed, &allowed);
    }
    return;
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  ring_.resize(std::max<std::size_t>(256, threads * 8));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] {
      spread_start(i);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              FunctionRef<void(std::size_t)> fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, std::max<std::size_t>(1, size()));
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const std::size_t live = (n + chunk - 1) / chunk;  // non-empty chunks

  struct ChunkTask {
    std::size_t lo;
    std::size_t hi;
    FunctionRef<void(std::size_t)> fn;
    void operator()() {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }
  };
  static_assert(sizeof(ChunkTask) <= kInlineBytes &&
                std::is_nothrow_move_constructible_v<ChunkTask>);

  std::vector<std::future<void>> joins;
  joins.reserve(live);
  for (std::size_t c = 0; c < live; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    joins.push_back(submit(ChunkTask{lo, hi, fn}));
  }

  // Wait for every chunk even if an early one threw: tasks reference fn on
  // this stack frame, so returning before the pool drains them is UB.
  std::exception_ptr error;
  for (auto& join : joins) {
    try {
      join.get();
    } catch (...) {
      if (error == nullptr) error = std::current_exception();
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  for (;;) {
    TaskSlot local;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || count_ > 0; });
      if (count_ == 0) return;  // stop_ set and queue drained
      TaskSlot& slot = ring_[head_];
      slot.relocate(local.storage, slot.storage);
      local.invoke = slot.invoke;
      slot.invoke = nullptr;
      slot.relocate = nullptr;
      head_ = (head_ + 1) % ring_.size();
      --count_;
    }
    cv_space_.notify_one();
    local.invoke(local.storage);
  }
}

}  // namespace rups::util
