#include "obs/recorder.hpp"

#include <cstdio>
#include <fstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/json.hpp"

namespace rups::obs {

using util::json_number;

namespace {

std::string escaped(const std::string& s) { return util::json_quote(s); }

}  // namespace

const char* event_type_name(EventType type) noexcept {
  switch (type) {
    case EventType::kSeekStarted: return "seek_started";
    case EventType::kSeekAccepted: return "seek_accepted";
    case EventType::kSeekRejected: return "seek_rejected";
    case EventType::kEstimateEmitted: return "estimate_emitted";
    case EventType::kEstimateMissing: return "estimate_missing";
    case EventType::kEstimateChecked: return "estimate_checked";
    case EventType::kExchangeSent: return "exchange_sent";
    case EventType::kExchangeReceived: return "exchange_received";
    case EventType::kAnomaly: return "anomaly";
    case EventType::kTrackVerified: return "track_verified";
    case EventType::kTrackLost: return "track_lost";
    case EventType::kExchangeDegraded: return "exchange_degraded";
    case EventType::kExchangeFailed: return "exchange_failed";
  }
  return "unknown";
}

std::string events_to_json(const std::vector<RecorderEvent>& events) {
  std::string out = "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const RecorderEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"seq\": " + std::to_string(e.seq);
    out += ", \"ts_us\": " + json_number(e.ts_us);
    out += ", \"tid\": " + std::to_string(e.tid);
    out += ", \"type\": \"";
    out += event_type_name(e.type);
    out += "\", \"label\": " + escaped(e.label != nullptr ? e.label : "");
    out += ", \"v\": [" + json_number(e.v0) + ", " + json_number(e.v1) +
           ", " + json_number(e.v2) + "]}";
  }
  out += events.empty() ? "]" : "\n  ]";
  return out;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity),
      capacity_(capacity == 0 ? 1 : capacity),
      overwritten_counter_(
          &Registry::global().counter("recorder.overwritten")) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* r = new FlightRecorder();  // outlives static dtors
  return *r;
}

void FlightRecorder::record(EventType type, const char* label, double v0,
                            double v1, double v2) noexcept {
  const double ts = now_us();
  const std::uint32_t tid = this_thread_tid();
  std::lock_guard lock(mutex_);
  if (size_ == capacity_) {
    // The ring is full: this append evicts the oldest retained event.
    ++overwritten_;
    overwritten_counter_->inc();
  }
  RecorderEvent& slot = ring_[head_];
  slot.type = type;
  slot.tid = tid;
  slot.seq = next_seq_++;
  slot.ts_us = ts;
  slot.label = label != nullptr ? label : "";
  slot.v0 = v0;
  slot.v1 = v1;
  slot.v2 = v2;
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

std::vector<RecorderEvent> FlightRecorder::recent_locked() const {
  std::vector<RecorderEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::vector<RecorderEvent> FlightRecorder::recent() const {
  std::lock_guard lock(mutex_);
  return recent_locked();
}

std::uint64_t FlightRecorder::total_recorded() const noexcept {
  std::lock_guard lock(mutex_);
  return next_seq_;
}

std::uint64_t FlightRecorder::overwritten() const noexcept {
  std::lock_guard lock(mutex_);
  return overwritten_;
}

std::size_t FlightRecorder::capacity() const noexcept {
  std::lock_guard lock(mutex_);
  return capacity_;
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.assign(capacity_, RecorderEvent{});
  head_ = 0;
  size_ = 0;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mutex_);
  head_ = 0;
  size_ = 0;
}

void FlightRecorder::set_dump_dir(std::filesystem::path dir) {
  std::lock_guard lock(mutex_);
  dump_dir_ = std::move(dir);
}

std::filesystem::path FlightRecorder::dump_dir() const {
  std::lock_guard lock(mutex_);
  return dump_dir_;
}

void FlightRecorder::set_config_text(std::string json) {
  std::lock_guard lock(mutex_);
  config_text_ = std::move(json);
}

void FlightRecorder::set_max_dumps(std::size_t max_dumps) {
  std::lock_guard lock(mutex_);
  max_dumps_ = max_dumps;
}

std::uint64_t FlightRecorder::anomalies() const noexcept {
  std::lock_guard lock(mutex_);
  return anomalies_;
}

namespace {

/// The anomaly caller's open-span chain, outermost first — which fleet
/// round / neighbour task / seek the bundle was captured inside.
std::string spans_to_json(const std::vector<SpanRecord>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + escaped(s.name != nullptr ? s.name : "");
    out += ", \"trace\": " + std::to_string(s.trace_id);
    out += ", \"span\": " + std::to_string(s.span_id);
    out += ", \"parent\": " + std::to_string(s.parent_id);
    out += ", \"start_us\": " + json_number(s.start_us) + "}";
  }
  out += spans.empty() ? "]" : "\n  ]";
  return out;
}

}  // namespace

std::filesystem::path FlightRecorder::anomaly(const char* label,
                                              const std::string& detail) {
  // Capture the caller's span chain before any locking: it is
  // thread-local, and the bundle should describe the thread that noticed
  // the anomaly.
  const std::string spans = spans_to_json(active_span_chain());
  record(EventType::kAnomaly, label,
         static_cast<double>(anomalies()));

  std::filesystem::path target;
  std::vector<RecorderEvent> events;
  std::string config;
  {
    std::lock_guard lock(mutex_);
    ++anomalies_;
    if (dump_dir_.empty() || dumps_written_ >= max_dumps_) return {};
    char name[64];
    std::snprintf(name, sizeof(name), "rups_diag_%04llu.json",
                  static_cast<unsigned long long>(dumps_written_));
    target = dump_dir_ / name;
    ++dumps_written_;
    events = recent_locked();
    config = config_text_;
  }

  // Snapshot and file IO happen outside the recorder lock: instrumentation
  // sites keep appending while the bundle is written.
  std::string out = "{\n";
  out += "  \"kind\": \"rups_diagnostics_bundle\",\n";
  out += "  \"anomaly\": " + escaped(label != nullptr ? label : "") + ",\n";
  out += "  \"detail\": " + escaped(detail) + ",\n";
  out += "  \"ts_us\": " + json_number(now_us()) + ",\n";
  out += "  \"config\": " + (config.empty() ? std::string("null") : config) +
         ",\n";
  out += "  \"spans\": " + spans + ",\n";
  out += "  \"metrics\": " + Registry::global().snapshot().to_json() + ",\n";
  out += "  \"events\": " + events_to_json(events) + "\n}\n";

  std::error_code ec;
  std::filesystem::create_directories(target.parent_path(), ec);
  std::ofstream file(target);
  file << out;
  if (!file) {
    RUPS_LOG(kError) << "diagnostics bundle write failed: " << target;
    return {};
  }
  RUPS_LOG(kWarn) << "anomaly '" << (label != nullptr ? label : "") << "': "
                  << detail << " — diagnostics bundle at " << target;
  return target;
}

}  // namespace rups::obs
