#pragma once

// Flight recorder: a fixed-capacity, thread-safe ring buffer of structured
// pipeline events (SYN seeks with scores, estimates with error-vs-truth,
// V2V exchanges with byte counts, anomaly markers). The recorder answers
// "why did this seek fail?" after the fact: when an anomaly fires (health
// rule violated, caller-detected fault) it dumps a JSON diagnostics bundle
// — the recent events, a full MetricsSnapshot, and the active config blob
// — to a directory for offline inspection.
//
//   obs::FlightRecorder::global().record(obs::EventType::kSeekAccepted,
//                                        "syn", correlation, window, thr);
//   ...
//   obs::FlightRecorder::global().anomaly("health.availability",
//                                         "availability 0.10 < 0.25");

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace rups::obs {

enum class EventType : std::uint8_t {
  kSeekStarted = 0,    ///< v0 = context A metres, v1 = B metres, v2 = offset
  kSeekAccepted,       ///< v0 = correlation, v1 = window m, v2 = threshold
  kSeekRejected,       ///< v0 = best correlation, v1 = window m, v2 = threshold
  kEstimateEmitted,    ///< v0 = distance m, v1 = confidence, v2 = SYN count
  kEstimateMissing,    ///< v0 = ground truth m when known (else 0)
  kEstimateChecked,    ///< v0 = estimate m, v1 = truth m, v2 = |error| m
  kExchangeSent,       ///< v0 = payload bytes, v1 = packets, v2 = duration s
  kExchangeReceived,   ///< v0 = payload bytes, v1 = trajectory metres
  kAnomaly,            ///< v0 = anomaly ordinal; label names the trigger
  kTrackVerified,      ///< v0 = correlation, v1 = recency offset, v2 = window
  kTrackLost,          ///< v0 = best correlation seen, v1 = recency offset
  kExchangeDegraded,   ///< v0 = metres recovered, v1 = metres expected,
                       ///<   v2 = fragments missing; label = salvage kind
  kExchangeFailed,     ///< v0 = fragments received, v1 = fragments expected,
                       ///<   v2 = duration s; label = reject reason
};

/// Stable wire name of an event type ("seek_accepted", ...).
[[nodiscard]] const char* event_type_name(EventType type) noexcept;

/// One recorded event. `label` must point at a string with static storage
/// duration (instrumentation sites pass literals); `v0..v2` are typed per
/// EventType as documented above.
struct RecorderEvent {
  EventType type = EventType::kAnomaly;
  std::uint32_t tid = 0;   ///< dense thread id (obs::this_thread_tid)
  std::uint64_t seq = 0;   ///< global append order, monotone per recorder
  double ts_us = 0.0;      ///< microseconds since process start
  const char* label = "";
  double v0 = 0.0;
  double v1 = 0.0;
  double v2 = 0.0;
};

/// Serialize events oldest-first as a JSON array (used inside bundles and
/// by tests/tools).
[[nodiscard]] std::string events_to_json(
    const std::vector<RecorderEvent>& events);

class Counter;

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder used by the built-in instrumentation.
  [[nodiscard]] static FlightRecorder& global();

  /// Append one event (stamps seq / ts_us / tid). Thread-safe; overwrites
  /// the oldest event when full. `label` must outlive the recorder.
  void record(EventType type, const char* label, double v0 = 0.0,
              double v1 = 0.0, double v2 = 0.0) noexcept;

  /// Consistent copy of the retained events, oldest-first.
  [[nodiscard]] std::vector<RecorderEvent> recent() const;

  /// Events ever recorded (including ones already overwritten).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept;
  /// Events lost to ring overwrites (also the `recorder.overwritten`
  /// registry counter and a HealthReport field): how much history the
  /// next anomaly bundle is missing.
  [[nodiscard]] std::uint64_t overwritten() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept;
  /// Resize the ring; retained events are dropped.
  void set_capacity(std::size_t capacity);
  void clear();

  /// Directory for diagnostics bundles; empty disables dumping (anomaly
  /// events are still recorded and counted).
  void set_dump_dir(std::filesystem::path dir);
  [[nodiscard]] std::filesystem::path dump_dir() const;
  /// Verbatim JSON blob embedded as "config" in every bundle (pass "{}" or
  /// a serialized config; empty embeds null).
  void set_config_text(std::string json);
  /// Upper bound on bundles written per process (default 16) — an anomaly
  /// storm must not fill the disk.
  void set_max_dumps(std::size_t max_dumps);
  [[nodiscard]] std::uint64_t anomalies() const noexcept;

  /// Record a kAnomaly event and, when a dump dir is configured and the
  /// dump budget allows, write a diagnostics bundle. Returns the bundle
  /// path (empty when no file was written).
  std::filesystem::path anomaly(const char* label, const std::string& detail);

 private:
  [[nodiscard]] std::vector<RecorderEvent> recent_locked() const;

  mutable std::mutex mutex_;
  std::vector<RecorderEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t overwritten_ = 0;
  Counter* overwritten_counter_ = nullptr;  ///< resolved once in the ctor
  std::uint64_t anomalies_ = 0;
  std::uint64_t dumps_written_ = 0;
  std::size_t max_dumps_ = 16;
  std::filesystem::path dump_dir_;
  std::string config_text_;
};

}  // namespace rups::obs
