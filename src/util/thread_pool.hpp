#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/function_ref.hpp"

namespace rups::util {

/// Minimal fixed-size thread pool. Used to parallelize the SYN-point
/// double-sliding search across window positions (the O(mwk) hot path from
/// Sec. V-A of the paper) and for embarrassingly parallel experiment sweeps.
///
/// Tasks live in a preallocated ring of small-buffer-optimized slots:
/// enqueueing a callable that fits kInlineBytes (parallel_for's chunk tasks
/// by construction) constructs it in place instead of boxing it through a
/// std::function; oversized callables fall back to a heap box. When the
/// ring is full the producer blocks until a worker frees a slot —
/// backpressure, not growth.
///
/// Worker i starts on the i-th CPU of its creator's affinity set and then
/// gets the whole set back: the pool spreads its start, it never pins.
class ThreadPool {
 public:
  /// Largest callable stored inline in a ring slot.
  static constexpr std::size_t kInlineBytes = 64;

  /// @param threads worker count; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return ring_.size();
  }

  /// Enqueue a task; the returned future observes its completion/exception.
  /// The callable goes through an inline ring slot (no std::function box);
  /// the future's shared state is the one remaining allocation.
  template <typename F>
  std::future<void> submit(F&& task) {
    std::packaged_task<void()> pt(std::forward<F>(task));
    std::future<void> fut = pt.get_future();
    enqueue(std::move(pt));
    return fut;
  }

  /// Run fn(i) for i in [begin, end) across the pool, blocking until all
  /// iterations complete. Iterations are chunked contiguously. Exceptions
  /// propagate (first one wins). Chunk tasks are inline ring slots — no
  /// per-task std::function box — leaving one future shared state per
  /// chunk (bounded by pool size, not iteration count) as the only
  /// allocations. The sequential per-chunk future waits are deliberate:
  /// single-wakeup joins (condvar or futex) roughly double the caller's
  /// attributed CPU time on 1-vCPU hosts.
  void parallel_for(std::size_t begin, std::size_t end,
                    FunctionRef<void(std::size_t)> fn);

 private:
  /// One ring entry. `invoke` runs and destroys the stored callable;
  /// `relocate` move-constructs it into another slot's storage and destroys
  /// the source — how a worker claims a task before running it unlocked.
  struct TaskSlot {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*invoke)(void*) = nullptr;
    void (*relocate)(void*, void*) = nullptr;
  };

  template <typename F>
  void enqueue(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    std::unique_lock lock(mutex_);
    cv_space_.wait(lock, [this] { return count_ < ring_.size(); });
    TaskSlot& slot = ring_[(head_ + count_) % ring_.size()];
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(f));
      slot.invoke = [](void* p) {
        Fn* fn = static_cast<Fn*>(p);
        struct Guard {
          Fn* fn;
          ~Guard() { fn->~Fn(); }
        } guard{fn};
        (*fn)();
      };
      slot.relocate = [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
    } else {
      // Oversized or throwing-move callable: box it (allocates — cold path).
      using Box = std::unique_ptr<Fn>;
      static_assert(sizeof(Box) <= kInlineBytes);
      ::new (static_cast<void*>(slot.storage))
          Box(std::make_unique<Fn>(std::forward<F>(f)));
      slot.invoke = [](void* p) {
        Box* box = static_cast<Box*>(p);
        struct Guard {
          Box* box;
          ~Guard() { box->~Box(); }
        } guard{box};
        (**box)();
      };
      slot.relocate = [](void* dst, void* src) {
        Box* from = static_cast<Box*>(src);
        ::new (dst) Box(std::move(*from));
        from->~Box();
      };
    }
    ++count_;
    lock.unlock();
    cv_.notify_one();
  }

  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<TaskSlot> ring_;
  std::size_t head_ = 0;   ///< index of the oldest queued task
  std::size_t count_ = 0;  ///< queued tasks
  std::mutex mutex_;
  std::condition_variable cv_;        ///< queued work available
  std::condition_variable cv_space_;  ///< ring slot freed
  bool stop_ = false;
};

}  // namespace rups::util
