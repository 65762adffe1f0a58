#include "obs/alloc.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

// Decide whether interposition is compiled in. The sanitizer allocators
// must stay in charge under their lanes (ASAN's redzone poisoning and
// TSAN's happens-before tracking live inside their malloc), so accounting
// compiles out there and availability reports why.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RUPS_ALLOC_ASAN_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RUPS_ALLOC_ASAN_DISABLED 1
#endif
#endif
#if !defined(RUPS_ALLOC_ASAN_DISABLED)
#define RUPS_ALLOC_INTERPOSE 1
#endif

namespace rups::obs {

namespace {

#ifdef RUPS_ALLOC_INTERPOSE

// Plain constant-initialised thread_locals: safe to touch from inside
// operator new (no guarded dynamic init, no allocation, no registration).
thread_local std::uint64_t t_count = 0;
thread_local std::uint64_t t_bytes = 0;
thread_local std::uint64_t t_frees = 0;

std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_frees{0};

std::atomic<bool> g_census_enabled{false};

// Fixed-size open-addressed census table keyed by span-name pointer (span
// names are string literals, so pointer identity is name identity). The
// last slot is a shared overflow cell. Lock-free: claim a slot by CASing
// the key from nullptr, then bump the per-slot atomics.
constexpr std::size_t kCensusSlots = 64;
constexpr const char* kUnattributed = "(unattributed)";
constexpr const char* kCensusOverflow = "(census-overflow)";

struct CensusSlot {
  std::atomic<const char*> key{nullptr};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};

CensusSlot g_census[kCensusSlots];

CensusSlot* census_slot(const char* stage) noexcept {
  const auto hash =
      reinterpret_cast<std::uintptr_t>(stage) * 0x9E3779B97F4A7C15ull;
  const std::size_t probe_limit = kCensusSlots - 1;  // last slot = overflow
  for (std::size_t i = 0; i < probe_limit; ++i) {
    const std::size_t idx =
        (static_cast<std::size_t>(hash >> 17) + i) % probe_limit;
    CensusSlot& slot = g_census[idx];
    const char* key = slot.key.load(std::memory_order_acquire);
    if (key == stage) return &slot;
    if (key == nullptr) {
      const char* expected = nullptr;
      if (slot.key.compare_exchange_strong(expected, stage,
                                           std::memory_order_acq_rel)) {
        return &slot;
      }
      if (expected == stage) return &slot;
    }
  }
  CensusSlot& overflow = g_census[kCensusSlots - 1];
  overflow.key.store(kCensusOverflow, std::memory_order_release);
  return &overflow;
}

void note_alloc(std::size_t size) noexcept {
  ++t_count;
  t_bytes += size;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (g_census_enabled.load(std::memory_order_relaxed)) {
    const char* stage = detail::current_span_name();
    if (stage == nullptr) stage = kUnattributed;
    CensusSlot* slot = census_slot(stage);
    slot->count.fetch_add(1, std::memory_order_relaxed);
    slot->bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void note_free() noexcept {
  ++t_frees;
  g_frees.fetch_add(1, std::memory_order_relaxed);
}

void* checked_alloc(std::size_t size, void* (*alloc)(std::size_t)) {
  for (;;) {
    if (void* p = alloc(size)) {
      note_alloc(size);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* plain_alloc(std::size_t size) {
  return std::malloc(size == 0 ? 1 : size);
}

#endif  // RUPS_ALLOC_INTERPOSE

}  // namespace

bool alloc_accounting_available() noexcept {
#ifdef RUPS_ALLOC_INTERPOSE
  return true;
#else
#ifdef RUPS_ALLOC_ASAN_DISABLED
  static const bool logged = [] {
    RUPS_LOG(kWarn)
        << "alloc accounting disabled: a sanitizer owns the allocator "
           "(operator new interposition would bypass its bookkeeping)";
    return true;
  }();
  (void)logged;
#endif
  return false;
#endif
}

AllocTotals thread_alloc_totals() noexcept {
#ifdef RUPS_ALLOC_INTERPOSE
  return {t_count, t_bytes, t_frees};
#else
  return {};
#endif
}

AllocTotals process_alloc_totals() noexcept {
#ifdef RUPS_ALLOC_INTERPOSE
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed),
          g_frees.load(std::memory_order_relaxed)};
#else
  return {};
#endif
}

void enable_alloc_census(bool on) noexcept {
#ifdef RUPS_ALLOC_INTERPOSE
  g_census_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

bool alloc_census_enabled() noexcept {
#ifdef RUPS_ALLOC_INTERPOSE
  return g_census_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void reset_alloc_census() noexcept {
#ifdef RUPS_ALLOC_INTERPOSE
  for (CensusSlot& slot : g_census) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.bytes.store(0, std::memory_order_relaxed);
  }
#endif
}

std::vector<AllocCensusRow> alloc_census() {
  std::vector<AllocCensusRow> rows;
#ifdef RUPS_ALLOC_INTERPOSE
  for (CensusSlot& slot : g_census) {
    const char* key = slot.key.load(std::memory_order_acquire);
    if (key == nullptr) continue;
    const std::uint64_t count = slot.count.load(std::memory_order_relaxed);
    const std::uint64_t bytes = slot.bytes.load(std::memory_order_relaxed);
    if (count == 0 && bytes == 0) continue;
    rows.push_back({key, count, bytes});
  }
  std::sort(rows.begin(), rows.end(),
            [](const AllocCensusRow& a, const AllocCensusRow& b) {
              return std::string_view(a.stage) < std::string_view(b.stage);
            });
#endif
  return rows;
}

void publish_alloc_census() {
#ifdef RUPS_ALLOC_INTERPOSE
  static GaugeFamily& counts =
      Registry::global().gauge_family("alloc.count", "stage");
  static GaugeFamily& bytes =
      Registry::global().gauge_family("alloc.bytes", "stage");
  for (const AllocCensusRow& row : alloc_census()) {
    counts.with(row.stage).set(static_cast<double>(row.count));
    bytes.with(row.stage).set(static_cast<double>(row.bytes));
  }
#endif
}

}  // namespace rups::obs

#ifdef RUPS_ALLOC_INTERPOSE

// Global operator new/delete replacement. Every form forwards to malloc /
// free (glibc free() handles aligned_alloc pointers), with the throwing
// forms running the standard new_handler loop. Definitions live in this
// translation unit of the static rups_obs library; any binary that
// references an obs::alloc symbol (the pipeline wiring does) links them in
// and gets process-wide accounting.

namespace {

void* aligned_alloc_for(std::size_t size, std::align_val_t al) noexcept {
  const std::size_t alignment = static_cast<std::size_t>(al);
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  return rups::obs::checked_alloc(size, rups::obs::plain_alloc);
}

void* operator new[](std::size_t size) {
  return rups::obs::checked_alloc(size, rups::obs::plain_alloc);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = rups::obs::plain_alloc(size);
  if (p != nullptr) rups::obs::note_alloc(size);
  return p;
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* p = rups::obs::plain_alloc(size);
  if (p != nullptr) rups::obs::note_alloc(size);
  return p;
}

void* operator new(std::size_t size, std::align_val_t al) {
  for (;;) {
    if (void* p = aligned_alloc_for(size, al)) {
      rups::obs::note_alloc(size);
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}

void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  void* p = aligned_alloc_for(size, al);
  if (p != nullptr) rups::obs::note_alloc(size);
  return p;
}

void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  void* p = aligned_alloc_for(size, al);
  if (p != nullptr) rups::obs::note_alloc(size);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  rups::obs::note_free();
  std::free(p);
}

void operator delete[](void* p) noexcept { operator delete(p); }

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

void operator delete(void* p, std::align_val_t) noexcept {
  operator delete(p);
}

void operator delete[](void* p, std::align_val_t) noexcept {
  operator delete(p);
}

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}

void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

#endif  // RUPS_ALLOC_INTERPOSE

