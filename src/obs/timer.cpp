#include "obs/timer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace rups::obs {

namespace {

std::atomic<TraceSink*> g_trace_sink{nullptr};

std::chrono::steady_clock::time_point process_start() noexcept {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

// Touch the epoch during static init so now_us() is monotone from startup.
[[maybe_unused]] const auto g_epoch_init = process_start();

// The calling thread's open named spans, innermost last; ObsTimers push
// onto it and the recorder/tooling read it through current_span().
thread_local std::vector<SpanRecord> t_span_stack;

// --- cross-thread sampling mirror -----------------------------------------
//
// The sampling profiler needs to read *other* threads' span stacks, which
// thread_local storage cannot offer. Each thread therefore mirrors its
// stack (names only, fixed depth) into a PublishedStack on every push/pop,
// guarded by a seqlock: version is odd while a write is in progress, and a
// reader only accepts a sample whose version was even and unchanged across
// the payload read. Every field is an atomic, so torn reads are impossible
// at the language level; the version check removes cross-field skew.
// PublishedStacks are leaked: a sampler may legitimately read one after
// its owning thread exited (balanced RAII spans leave depth 0 behind).

constexpr std::size_t kPublishedDepth = 16;

struct PublishedStack {
  std::uint32_t tid = 0;
  std::atomic<std::uint32_t> version{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<const char*> names[kPublishedDepth] = {};
};

struct StackDirectory {
  std::mutex mutex;
  std::vector<PublishedStack*> stacks;
};

StackDirectory& stack_directory() {
  static StackDirectory* dir = new StackDirectory();
  return *dir;
}

PublishedStack& published_stack() {
  thread_local PublishedStack* stack = [] {
    auto* s = new PublishedStack();
    s->tid = this_thread_tid();
    StackDirectory& dir = stack_directory();
    std::lock_guard lock(dir.mutex);
    dir.stacks.push_back(s);
    return s;
  }();
  return *stack;
}

void publish_stack() noexcept {
  PublishedStack& p = published_stack();
  const std::uint32_t v = p.version.load(std::memory_order_relaxed);
  p.version.store(v + 1, std::memory_order_relaxed);  // odd: writing
  // Release payload stores: a reader whose acquire load sees one of them
  // also sees the odd version stored before it, and retries.
  const std::size_t n = std::min(t_span_stack.size(), kPublishedDepth);
  for (std::size_t i = 0; i < n; ++i) {
    p.names[i].store(t_span_stack[i].name, std::memory_order_release);
  }
  p.depth.store(static_cast<std::uint32_t>(n), std::memory_order_release);
  p.version.store(v + 2, std::memory_order_release);
}

/// Thread labels, indexed by dense tid. Guarded by its own mutex; leaked
/// so labels survive static teardown (trace sinks may close at exit).
struct ThreadLabels {
  std::mutex mutex;
  std::vector<const char*> labels;
};

ThreadLabels& thread_labels() {
  static ThreadLabels* labels = new ThreadLabels();
  return *labels;
}

/// Sinks still open, for the atexit JSON-close guarantee. Lock order is
/// always registry mutex -> sink mutex (never the reverse).
struct SinkRegistry {
  std::mutex mutex;
  std::vector<ChromeTraceSink*> open;
};

SinkRegistry& sink_registry() {
  static SinkRegistry* reg = new SinkRegistry();
  return *reg;
}

void close_open_sinks() {
  SinkRegistry& reg = sink_registry();
  std::lock_guard lock(reg.mutex);
  for (ChromeTraceSink* sink : reg.open) sink->close();
}

void register_sink(ChromeTraceSink* sink) {
  SinkRegistry& reg = sink_registry();
  std::lock_guard lock(reg.mutex);
  if (reg.open.empty()) {
    static const int once = std::atexit(close_open_sinks);
    (void)once;
  }
  reg.open.push_back(sink);
}

void unregister_sink(ChromeTraceSink* sink) {
  SinkRegistry& reg = sink_registry();
  std::lock_guard lock(reg.mutex);
  reg.open.erase(std::remove(reg.open.begin(), reg.open.end(), sink),
                 reg.open.end());
}

}  // namespace

double now_us() noexcept {
  const auto d = std::chrono::steady_clock::now() - process_start();
  return std::chrono::duration<double, std::micro>(d).count();
}

std::uint32_t this_thread_tid() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void set_thread_label(const char* label) noexcept {
  const std::uint32_t tid = this_thread_tid();
  ThreadLabels& tl = thread_labels();
  std::lock_guard lock(tl.mutex);
  if (tl.labels.size() <= tid) tl.labels.resize(tid + 1, nullptr);
  tl.labels[tid] = label;
}

const char* thread_label(std::uint32_t tid) noexcept {
  ThreadLabels& tl = thread_labels();
  std::lock_guard lock(tl.mutex);
  return tid < tl.labels.size() ? tl.labels[tid] : nullptr;
}

SpanContext current_span() noexcept {
  if (t_span_stack.empty()) return {};
  const SpanRecord& top = t_span_stack.back();
  return {top.trace_id, top.span_id, this_thread_tid(), now_us()};
}

std::vector<SpanRecord> active_span_chain() { return t_span_stack; }

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SampledStack> sample_span_stacks() {
  std::vector<SampledStack> out;
  StackDirectory& dir = stack_directory();
  std::lock_guard lock(dir.mutex);
  out.reserve(dir.stacks.size());
  for (PublishedStack* p : dir.stacks) {
    const char* frames[kPublishedDepth];
    std::uint32_t depth = 0;
    bool consistent = false;
    for (int attempt = 0; attempt < 8 && !consistent; ++attempt) {
      const std::uint32_t v1 = p->version.load(std::memory_order_acquire);
      if ((v1 & 1u) != 0) continue;  // write in progress
      // Acquire payload loads order the version re-read after them.
      depth = std::min(p->depth.load(std::memory_order_acquire),
                       static_cast<std::uint32_t>(kPublishedDepth));
      for (std::uint32_t i = 0; i < depth; ++i) {
        frames[i] = p->names[i].load(std::memory_order_acquire);
      }
      consistent = p->version.load(std::memory_order_relaxed) == v1;
    }
    if (!consistent || depth == 0) continue;
    SampledStack sample;
    sample.tid = p->tid;
    sample.frames.assign(frames, frames + depth);
    out.push_back(std::move(sample));
  }
  return out;
}

namespace detail {

const char* current_span_name() noexcept {
  return t_span_stack.empty() ? nullptr : t_span_stack.back().name;
}

void span_push(const SpanRecord& record) {
  t_span_stack.push_back(record);
  publish_stack();
}

void span_pop() noexcept {
  if (!t_span_stack.empty()) t_span_stack.pop_back();
  publish_stack();
}

}  // namespace detail

void set_trace_sink(TraceSink* sink) noexcept {
  g_trace_sink.store(sink, std::memory_order_release);
}

TraceSink* trace_sink() noexcept {
  return g_trace_sink.load(std::memory_order_acquire);
}

ChromeTraceSink::ChromeTraceSink(const std::filesystem::path& path)
    : out_(path) {
  out_ << "[\n";
  {
    std::lock_guard lock(mutex_);
    line_locked(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"rups\"}}");
  }
  register_sink(this);
}

ChromeTraceSink::~ChromeTraceSink() {
  // Unregister before closing: the atexit hook holds the registry mutex
  // while closing sinks, so this order keeps locking acyclic.
  unregister_sink(this);
  close();
}

void ChromeTraceSink::close() {
  std::lock_guard lock(mutex_);
  if (closed_) return;
  closed_ = true;
  out_ << (lines_ == 0 ? "]\n" : "\n]\n");
  out_.flush();
}

void ChromeTraceSink::line_locked(const char* text) {
  if (lines_ > 0) out_ << ",\n";
  out_ << text;
  ++lines_;
}

void ChromeTraceSink::thread_metadata_locked(std::uint32_t tid) {
  if (!tids_named_.insert(tid).second) return;
  const char* label = thread_label(tid);
  char fallback[32];
  if (label == nullptr) {
    std::snprintf(fallback, sizeof(fallback), "rups thread %u", tid);
    label = fallback;
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                tid, label);
  line_locked(line);
}

void ChromeTraceSink::emit(const TraceEvent& event) {
  char line[320];
  // Complete event ("ph":"X"): chrome://tracing nests overlapping spans of
  // one tid by duration automatically. Span ids travel in args where both
  // chrome://tracing and Perfetto surface them in the selection panel.
  if (event.span_id != 0) {
    std::snprintf(
        line, sizeof(line),
        "{\"name\": \"%s\", \"cat\": \"rups\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
        "\"args\": {\"trace\": %llu, \"span\": %llu, \"parent\": %llu}}",
        event.name, event.ts_us, event.dur_us, event.tid,
        static_cast<unsigned long long>(event.trace_id),
        static_cast<unsigned long long>(event.span_id),
        static_cast<unsigned long long>(event.parent_id));
  } else {
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"rups\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u}",
                  event.name, event.ts_us, event.dur_us, event.tid);
  }
  std::lock_guard lock(mutex_);
  if (closed_) return;
  thread_metadata_locked(event.tid);
  line_locked(line);
  events_.fetch_add(1, std::memory_order_relaxed);
  // Periodic flush: an aborted run loses at most one batch of lines, and
  // the atexit close still terminates the array.
  if (lines_ % 32 == 0) out_.flush();
}

void ChromeTraceSink::emit_flow(const FlowEvent& event) {
  // Flow start ("s") binds to the enclosing slice on the dispatching
  // thread, flow finish ("f", bp:"e") to the destination slice; matching
  // ids draw the Perfetto arrow.
  char start[224];
  std::snprintf(start, sizeof(start),
                "{\"name\": \"%s\", \"cat\": \"rups.flow\", \"ph\": \"s\", "
                "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                event.name, static_cast<unsigned long long>(event.id),
                event.src_ts_us, event.src_tid);
  char finish[224];
  std::snprintf(finish, sizeof(finish),
                "{\"name\": \"%s\", \"cat\": \"rups.flow\", \"ph\": \"f\", "
                "\"bp\": \"e\", \"id\": %llu, \"ts\": %.3f, \"pid\": 1, "
                "\"tid\": %u}",
                event.name, static_cast<unsigned long long>(event.id),
                event.dst_ts_us, event.dst_tid);
  std::lock_guard lock(mutex_);
  if (closed_) return;
  thread_metadata_locked(event.src_tid);
  thread_metadata_locked(event.dst_tid);
  line_locked(start);
  line_locked(finish);
  events_.fetch_add(2, std::memory_order_relaxed);
}

}  // namespace rups::obs
