#pragma once

// Global allocation accounting for the zero-alloc steady-state ratchet.
//
// When compiled in (see the availability rule below) every `operator new` /
// `operator delete` in the process is interposed: each allocation bumps
// plain thread-local counters (wait-free, no locks, no recursion risk) and
// process-wide relaxed atomics. An optional *census* additionally
// attributes each allocation to the innermost open obs span on the calling
// thread ("fleet.task", "syn.kernel", ...) in a fixed-size lock-free table,
// published to the registry as the gauge families `alloc.count{stage}` and
// `alloc.bytes{stage}`. The census is what `steady_alloc_gate` ratchets:
// the warm N=16 fleet round's allocation count must not creep up, and the
// future arena refactor drives it to zero.
//
// Interposition is compiled OUT (and every query returns zeros, with
// alloc_accounting_available() == false) under AddressSanitizer or
// ThreadSanitizer: the sanitizer owns malloc and instruments its own
// allocator, and replacing operator new would bypass that, so accounting
// auto-disables with a logged reason.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rups::obs {

/// Monotonic allocation totals (since process start or last census reset —
/// the plain totals are never reset; deltas are the intended use).
struct AllocTotals {
  std::uint64_t count = 0;  ///< operator new calls
  std::uint64_t bytes = 0;  ///< bytes requested (not rounded to bin sizes)
  std::uint64_t frees = 0;  ///< operator delete calls

  friend AllocTotals operator-(const AllocTotals& a, const AllocTotals& b) {
    return {a.count - b.count, a.bytes - b.bytes, a.frees - b.frees};
  }
};

/// One census row: allocations attributed to an obs span stage. `stage` is
/// the span-name literal (static storage) or "(unattributed)" for
/// allocations made outside any span.
struct AllocCensusRow {
  const char* stage = "";
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// True when operator new/delete interposition is live in this build.
/// The first call in a build where ASAN forced it off logs the reason
/// (once, at kWarn) so CI lanes show *why* alloc metrics are absent.
[[nodiscard]] bool alloc_accounting_available() noexcept;

/// Totals for the calling thread only. Wait-free.
[[nodiscard]] AllocTotals thread_alloc_totals() noexcept;
/// Process-wide totals across all threads.
[[nodiscard]] AllocTotals process_alloc_totals() noexcept;

/// Turn span-stage attribution on/off (off by default: attribution adds a
/// thread-local stack peek plus two atomic adds per allocation).
void enable_alloc_census(bool on) noexcept;
[[nodiscard]] bool alloc_census_enabled() noexcept;
/// Zero every census cell (stage slots stay claimed).
void reset_alloc_census() noexcept;
/// Census contents, sorted by stage name; empty rows are skipped.
[[nodiscard]] std::vector<AllocCensusRow> alloc_census();
/// Mirror the census into the global registry as the gauge families
/// `alloc.count{stage}` / `alloc.bytes{stage}` (idempotent set per cell).
void publish_alloc_census();

}  // namespace rups::obs
