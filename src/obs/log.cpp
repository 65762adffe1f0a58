#include "obs/log.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace rups::obs {

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger& Logger::global() {
  static Logger* logger = new Logger();  // leaked: usable during teardown
  return *logger;
}

void Logger::set_sink_file(const std::filesystem::path& path) {
  std::lock_guard lock(mutex_);
  if (file_.is_open()) file_.close();
  to_file_ = false;
  if (!path.empty()) {
    file_.open(path);
    to_file_ = file_.is_open();
  }
}

void Logger::set_rate_limit(double lines_per_s) noexcept {
  std::lock_guard lock(mutex_);
  rate_per_s_ = lines_per_s;
  tokens_ = lines_per_s > 0.0 ? lines_per_s : 0.0;
  last_refill_us_ = now_us();
}

void Logger::write(LogLevel level, const char* file, int line,
                   const std::string& message) {
  if (!enabled(level)) return;

  // Strip directories from __FILE__ for stable, short locations.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }

  const auto wall = std::chrono::system_clock::now();
  const auto secs = std::chrono::time_point_cast<std::chrono::seconds>(wall);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      wall - secs)
                      .count();
  const std::time_t t = std::chrono::system_clock::to_time_t(wall);
  std::tm tm{};
  gmtime_r(&t, &tm);

  char head[96];
  std::snprintf(head, sizeof(head),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ %-5s %s:%d] ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms),
                log_level_name(level), base, line);

  std::lock_guard lock(mutex_);
  if (rate_per_s_ > 0.0) {
    const double now = now_us();
    tokens_ = std::min(rate_per_s_,
                       tokens_ + (now - last_refill_us_) * 1e-6 * rate_per_s_);
    last_refill_us_ = now;
    if (tokens_ < 1.0) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      total_suppressed_.fetch_add(1, std::memory_order_relaxed);
      Registry::global().counter("log.suppressed").inc();
      return;
    }
    tokens_ -= 1.0;
  }
  const std::uint64_t dropped =
      dropped_.exchange(0, std::memory_order_relaxed);
  if (to_file_) {
    if (dropped > 0) {
      file_ << head << "(rate limit dropped " << dropped << " lines)\n";
    }
    file_ << head << message << "\n";
    file_.flush();
  } else {
    if (dropped > 0) {
      std::fprintf(stderr, "%s(rate limit dropped %llu lines)\n", head,
                   static_cast<unsigned long long>(dropped));
    }
    std::fprintf(stderr, "%s%s\n", head, message.c_str());
  }
}

}  // namespace rups::obs
