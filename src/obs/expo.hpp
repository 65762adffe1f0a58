#pragma once

// Prometheus text exposition (v0.0.4) and a minimal live /metrics server.
//
//   obs::MetricsExporter exporter({.port = 9464},
//       [] { return obs::Registry::global().snapshot(); },
//       [&] { return monitor.report(); });
//   exporter.start();            // serves /metrics and /healthz
//   ...
//   exporter.stop();
//
// render_prometheus() maps a MetricsSnapshot onto the text format: metric
// names are sanitised to [a-zA-Z0-9_:] (dots become underscores), labeled
// family cells (`fam{key="value"}` snapshot names, including __overflow__
// cells) become real Prometheus labels with escaped values, counters and
// gauges map directly, and histograms render as cumulative `_bucket{le=}`
// series plus `_sum` / `_count`.
//
// The exporter is a deliberately small blocking HTTP/1.0 server: one
// accept loop on a background thread, one request served at a time —
// scrape traffic for a single research service, not a web framework. It
// serves whatever the snapshot callback returns, so it works mid-campaign;
// /healthz returns 200 or 503 from the HealthMonitor verdict. Stop
// ordering at shutdown is profiler -> exporter -> trace sink.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "obs/health.hpp"
#include "obs/snapshot.hpp"

namespace rups::obs {

/// Prometheus-legal metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (the rups
/// metric convention) and any other illegal byte become '_'; a leading
/// digit gains a '_' prefix.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Render a full snapshot in text exposition format v0.0.4, with one
/// `# TYPE` header per metric family (the snapshot is name-sorted, so
/// family cells are adjacent).
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snap);

/// Tolerant reader for the subset render_prometheus emits: one entry per
/// sample line keyed by `name` or `name{labels}` exactly as written
/// (comments and blank lines skipped). Throws std::runtime_error on a
/// malformed sample line. For round-trip tests and selfchecks.
[[nodiscard]] std::map<std::string, double> parse_prometheus(
    const std::string& text);

/// Minimal blocking HTTP GET against 127.0.0.1-style hosts: fills `body`
/// and returns the HTTP status code, or -1 when the connection failed.
/// Test/selfcheck helper — the curl equivalent without the dependency.
[[nodiscard]] int http_get(const std::string& host, std::uint16_t port,
                           const std::string& path, std::string& body);

class MetricsExporter {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  };

  using SnapshotFn = std::function<MetricsSnapshot()>;
  using HealthFn = std::function<HealthReport()>;

  /// `snapshot` feeds /metrics; `health` (optional) feeds /healthz —
  /// without it /healthz always reports 200.
  MetricsExporter(Options options, SnapshotFn snapshot, HealthFn health = {});
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;
  ~MetricsExporter();  ///< stops if still running

  /// Bind + listen + spawn the serving thread. False (with a kWarn log)
  /// when the socket could not be bound.
  bool start();
  /// Stop accepting and join the serving thread; idempotent.
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  /// Requests answered (any path, any status).
  [[nodiscard]] std::uint64_t requests() const noexcept;

 private:
  void run();
  void handle(int client);

  Options options_;
  SnapshotFn snapshot_;
  HealthFn health_;
  bool running_ = false;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace rups::obs
