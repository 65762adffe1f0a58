#pragma once

// Scoped timers, causal spans, and Chrome trace_event output.
//
//   static obs::Histogram& h = obs::Registry::global().histogram("syn.seek_us");
//   {
//     obs::ObsTimer timer(&h, "syn.seek");   // span name optional
//     ... work ...
//   }                                        // records us + emits trace event
//
// Named timers form a causal span tree: each carries a fresh span id, the
// trace id of its root, and the span id of its parent — by default the
// innermost named timer currently open on the same thread. When work hops
// threads (FleetEngine handing per-neighbour tasks to the pool), the
// dispatching side captures obs::current_span() and passes it to the
// timer's explicit-parent constructor; the cross-thread edge is then
// emitted as a Chrome trace flow event ("ph":"s"/"f") so Perfetto draws
// the arrow from the fleet round into the worker-thread task.
//
// Spans go to the process-wide TraceSink when one is installed
// (obs::set_trace_sink). ChromeTraceSink writes the trace_event JSON array
// format, one event per line, which loads directly in chrome://tracing or
// https://ui.perfetto.dev.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <vector>

#include "obs/metrics.hpp"

namespace rups::obs {

/// Microseconds since process start (steady clock).
[[nodiscard]] double now_us() noexcept;

/// Small dense id of the calling thread (0, 1, 2, ... in first-use order).
[[nodiscard]] std::uint32_t this_thread_tid() noexcept;

/// Human-readable name for the calling thread, shown by ChromeTraceSink as
/// thread-name metadata (defaults to "rups thread <tid>"). `label` must
/// have static storage duration.
void set_thread_label(const char* label) noexcept;
[[nodiscard]] const char* thread_label(std::uint32_t tid) noexcept;

/// Handle to a live span, capturable on one thread and usable as an
/// explicit parent on another. Plain data.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;   ///< 0 = "no span" (ambient parenting applies)
  std::uint32_t tid = 0;       ///< thread the context was captured on
  double ts_us = 0.0;          ///< capture time; anchors the flow arrow

  [[nodiscard]] bool valid() const noexcept { return span_id != 0; }
};

/// One entry of a thread's open-span stack, innermost last. The recorder
/// embeds the calling thread's chain in anomaly bundles.
struct SpanRecord {
  const char* name = "";
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  double start_us = 0.0;
};

/// Innermost named timer currently open on the calling thread (invalid
/// context when none).
[[nodiscard]] SpanContext current_span() noexcept;
[[nodiscard]] std::vector<SpanRecord> active_span_chain();
/// Process-unique non-zero span id.
[[nodiscard]] std::uint64_t next_span_id() noexcept;

/// One thread's active span stack as seen from another thread: dense tid
/// plus span names, outermost first. Names have static storage duration
/// (span names are literals), so a sample stays valid after the spans end.
struct SampledStack {
  std::uint32_t tid = 0;
  std::vector<const char*> frames;
};

/// Snapshot the active span stack of every thread that has ever opened a
/// named span. Safe to call from any thread: each thread mirrors its stack
/// into a seqlock-published fixed-depth buffer on push/pop, and the sampler
/// retries a bounded number of times per thread, dropping a thread whose
/// stack it cannot read consistently (or whose stack is empty). Stacks
/// deeper than the published depth are truncated innermost-first.
[[nodiscard]] std::vector<SampledStack> sample_span_stacks();

namespace detail {
/// Innermost open span name on the calling thread (nullptr when none).
/// Lock-free and allocation-free: safe from operator new interposition.
[[nodiscard]] const char* current_span_name() noexcept;
}  // namespace detail

struct TraceEvent {
  const char* name = "";
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t trace_id = 0;  ///< 0 = span ids not tracked for this event
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// Cross-thread causality arrow: a span on `src_tid` dispatched work that
/// ran as span `id` on `dst_tid`. Timestamps anchor the arrow endpoints
/// inside the enclosing slices.
struct FlowEvent {
  const char* name = "";
  std::uint64_t id = 0;        ///< destination span id (flow-unique)
  std::uint64_t trace_id = 0;
  double src_ts_us = 0.0;
  std::uint32_t src_tid = 0;
  double dst_ts_us = 0.0;
  std::uint32_t dst_tid = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const TraceEvent& event) = 0;
  /// Cross-thread flow arrows; sinks that do not render causality may
  /// ignore them (the default drops them).
  virtual void emit_flow(const FlowEvent& /*event*/) {}
};

/// Install/clear the process-wide span sink (not owned). Pass nullptr to
/// disable. Emission is already-running-span safe: timers read the pointer
/// once at destruction.
void set_trace_sink(TraceSink* sink) noexcept;
[[nodiscard]] TraceSink* trace_sink() noexcept;

/// chrome://tracing "JSON array format" file sink: one event object per
/// line — complete spans ("ph":"X", with trace/span/parent ids in args),
/// flow arrows ("ph":"s"/"f"), and process/thread-name metadata ("ph":"M").
/// Thread-safe. The array is closed by close() (idempotent), by the
/// destructor, and — so an aborting campaign still leaves loadable JSON —
/// by an atexit hook covering every sink still open at process exit.
class ChromeTraceSink : public TraceSink {
 public:
  explicit ChromeTraceSink(const std::filesystem::path& path);
  ~ChromeTraceSink() override;

  void emit(const TraceEvent& event) override;
  void emit_flow(const FlowEvent& event) override;

  /// Write the closing ']' and flush; further events are dropped.
  void close();

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }
  /// Span + flow events written (metadata lines are not counted).
  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }

 private:
  void line_locked(const char* text);
  void thread_metadata_locked(std::uint32_t tid);

  std::mutex mutex_;
  std::ofstream out_;
  bool closed_ = false;
  std::uint64_t lines_ = 0;  ///< all lines incl. metadata (comma placement)
  std::atomic<std::uint64_t> events_{0};
  std::set<std::uint32_t> tids_named_;
};

namespace detail {
void span_push(const SpanRecord& record);
void span_pop() noexcept;
}  // namespace detail

/// RAII scope timer: on destruction (or explicit stop()) records the
/// elapsed microseconds into `histogram` (if any) and emits a span named
/// `span_name` (if any) to the installed trace sink. Named timers
/// participate in span parenting (see file comment); construct with an
/// explicit SpanContext to parent across threads.
class ObsTimer {
 public:
  explicit ObsTimer(Histogram* histogram,
                    const char* span_name = nullptr) noexcept
      : ObsTimer(histogram, span_name, SpanContext{}, false) {}

  /// Cross-thread child span: `parent` was captured via current_span() on
  /// the dispatching thread. A flow arrow parent -> this span is emitted
  /// when the threads differ.
  ObsTimer(Histogram* histogram, const char* span_name,
           const SpanContext& parent) noexcept
      : ObsTimer(histogram, span_name, parent, true) {}

  ObsTimer(const ObsTimer&) = delete;
  ObsTimer& operator=(const ObsTimer&) = delete;

  ~ObsTimer() { stop(); }

  [[nodiscard]] std::uint64_t span_id() const noexcept { return span_id_; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }

  /// Record now instead of at scope exit; idempotent. Returns elapsed us.
  double stop() noexcept {
    if (stopped_) return dur_us_;
    stopped_ = true;
    dur_us_ = now_us() - start_us_;
    if (histogram_ != nullptr) histogram_->record(dur_us_);
    if (name_ != nullptr) {
      detail::span_pop();
      if (TraceSink* sink = trace_sink()) {
        if (flow_) {
          sink->emit_flow({name_, span_id_, trace_id_, parent_.ts_us,
                           parent_.tid, start_us_, this_thread_tid()});
        }
        sink->emit({name_, start_us_, dur_us_, this_thread_tid(), trace_id_,
                    span_id_, parent_.span_id});
      }
    }
    return dur_us_;
  }

 private:
  ObsTimer(Histogram* histogram, const char* span_name,
           const SpanContext& parent, bool explicit_parent) noexcept
      : histogram_(histogram), name_(span_name), start_us_(now_us()) {
    if (name_ == nullptr) return;
    parent_ = explicit_parent && parent.valid() ? parent : current_span();
    span_id_ = next_span_id();
    trace_id_ = parent_.valid() ? parent_.trace_id : span_id_;
    flow_ = explicit_parent && parent.valid() &&
            parent.tid != this_thread_tid();
    detail::span_push({name_, trace_id_, span_id_, parent_.span_id,
                       start_us_});
  }

  Histogram* histogram_;
  const char* name_;
  double start_us_;
  double dur_us_ = 0.0;
  SpanContext parent_{};
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  bool flow_ = false;
  bool stopped_ = false;
};

}  // namespace rups::obs
