#pragma once

// Leveled, rate-limitable structured logger.
//
//   RUPS_LOG(kWarn) << "reassembly failed after " << n << " packets";
//
// Lines carry a wall-clock timestamp, level, and source location, and go to
// stderr by default (Logger::global().set_sink_file(...) redirects to a
// file). Disabled levels cost one relaxed atomic load, and their stream
// operands are never evaluated.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>

namespace rups::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] const char* log_level_name(LogLevel level) noexcept;

class Logger {
 public:
  [[nodiscard]] static Logger& global();

  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  void set_min_level(LogLevel level) noexcept {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel min_level() const noexcept {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  /// Redirect output to a file (empty path switches back to stderr).
  void set_sink_file(const std::filesystem::path& path);

  /// Token-bucket rate limit in lines/second over the whole logger;
  /// 0 disables limiting. Dropped lines are counted and reported by the
  /// next line that gets through.
  void set_rate_limit(double lines_per_s) noexcept;
  /// Drops since the last line that got through (reported inline, then
  /// rezeroed).
  [[nodiscard]] std::uint64_t dropped_lines() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Cumulative drops over the logger's lifetime; also exposed as the
  /// `log.suppressed` registry counter and in HealthReport, so silently
  /// lost telemetry stays visible after the fact.
  [[nodiscard]] std::uint64_t total_suppressed() const noexcept {
    return total_suppressed_.load(std::memory_order_relaxed);
  }

  /// Format and emit one line (called by LogLine; thread-safe).
  void write(LogLevel level, const char* file, int line,
             const std::string& message);

 private:
  Logger() = default;

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kWarn)};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> total_suppressed_{0};
  mutable std::mutex mutex_;
  std::ofstream file_;
  bool to_file_ = false;
  double rate_per_s_ = 0.0;
  double tokens_ = 0.0;
  double last_refill_us_ = 0.0;
};

/// One log statement being built; submits to Logger::global() on
/// destruction (end of the full expression).
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) noexcept
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { Logger::global().write(level_, file_, line_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// glog-style voidify: lets the macro below swallow the << chain inside a
/// ternary without dangling-else ambiguity.
struct LogVoidify {
  void operator&(LogLine&) const noexcept {}
};

}  // namespace rups::obs

#define RUPS_LOG(severity)                                         \
  (!::rups::obs::Logger::global().enabled(                         \
      ::rups::obs::LogLevel::severity))                            \
      ? (void)0                                                    \
      : ::rups::obs::LogVoidify() &                                \
            ::rups::obs::LogLine(::rups::obs::LogLevel::severity,  \
                                 __FILE__, __LINE__)
