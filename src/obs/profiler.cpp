#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace rups::obs {

std::string FoldedProfile::to_folded() const {
  std::string out;
  for (const Row& row : rows) {
    out += row.stack;
    out += ' ';
    out += std::to_string(row.samples);
    out += '\n';
  }
  return out;
}

std::vector<FoldedProfile::Attribution> FoldedProfile::attribution() const {
  // A stage may repeat within one stack (it never does today — span names
  // identify pipeline stages, not recursive frames — but count once to
  // keep `total` a sample share, not a frame count).
  std::map<std::string, Attribution> by_stage;
  for (const Row& row : rows) {
    std::set<std::string> seen;
    std::size_t start = 0;
    std::string leaf;
    while (start <= row.stack.size()) {
      const std::size_t sep = row.stack.find(';', start);
      const std::size_t len =
          sep == std::string::npos ? std::string::npos : sep - start;
      std::string stage = row.stack.substr(start, len);
      if (!stage.empty() && seen.insert(stage).second) {
        Attribution& a = by_stage[stage];
        a.stage = stage;
        a.total += row.samples;
      }
      if (sep == std::string::npos) {
        leaf = std::move(stage);
        break;
      }
      start = sep + 1;
    }
    if (!leaf.empty()) by_stage[leaf].self += row.samples;
  }
  std::vector<Attribution> out;
  out.reserve(by_stage.size());
  for (auto& [stage, a] : by_stage) out.push_back(std::move(a));
  std::sort(out.begin(), out.end(),
            [](const Attribution& a, const Attribution& b) {
              if (a.self != b.self) return a.self > b.self;
              return a.stage < b.stage;
            });
  return out;
}

std::string FoldedProfile::attribution_table() const {
  const std::vector<Attribution> rows_by_stage = attribution();
  std::size_t width = 5;  // "stage"
  for (const Attribution& a : rows_by_stage) {
    width = std::max(width, a.stage.size());
  }
  const double denom =
      total_samples == 0 ? 1.0 : static_cast<double>(total_samples);
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %10s %7s %10s %7s\n",
                static_cast<int>(width), "stage", "self", "self%", "total",
                "total%");
  std::string out = line;
  for (const Attribution& a : rows_by_stage) {
    std::snprintf(line, sizeof(line), "%-*s %10llu %6.1f%% %10llu %6.1f%%\n",
                  static_cast<int>(width), a.stage.c_str(),
                  static_cast<unsigned long long>(a.self),
                  100.0 * static_cast<double>(a.self) / denom,
                  static_cast<unsigned long long>(a.total),
                  100.0 * static_cast<double>(a.total) / denom);
    out += line;
  }
  return out;
}

namespace {

/// xorshift64*: deterministic jitter sequence from the configured seed.
std::uint64_t next_rand(std::uint64_t& state) noexcept {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1Dull;
}

}  // namespace

SpanProfiler::SpanProfiler(Options options) : options_(options) {
  if (options_.period_us < 50.0) options_.period_us = 50.0;
  if (options_.jitter_frac < 0.0) options_.jitter_frac = 0.0;
  if (options_.jitter_frac > 0.9) options_.jitter_frac = 0.9;
  if (options_.seed == 0) options_.seed = 1;
}

SpanProfiler::~SpanProfiler() { stop(); }

void SpanProfiler::start() {
  if (running_) return;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = false;
  }
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void SpanProfiler::stop() {
  if (!running_) return;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
}

FoldedProfile SpanProfiler::profile() const {
  FoldedProfile out;
  std::lock_guard lock(mutex_);
  out.rows.reserve(folded_.size());
  for (const auto& [stack, samples] : folded_) {
    out.rows.push_back({stack, samples});
  }
  out.total_samples = total_samples_;
  out.ticks = ticks_;
  return out;
}

void SpanProfiler::run() {
  set_thread_label("rups profiler");
  static Counter& ticks_counter =
      Registry::global().counter("profiler.ticks");
  static Counter& samples_counter =
      Registry::global().counter("profiler.samples");

  std::uint64_t rng = options_.seed;
  auto deadline = std::chrono::steady_clock::now();
  for (;;) {
    // Deterministic cadence: period +- jitter from the seeded sequence.
    double sleep_us = options_.period_us;
    if (options_.jitter_frac > 0.0) {
      const double unit = static_cast<double>(next_rand(rng) >> 11) /
                          9007199254740992.0;  // [0, 1)
      sleep_us *= 1.0 + options_.jitter_frac * (2.0 * unit - 1.0);
    }
    deadline += std::chrono::nanoseconds(
        static_cast<std::int64_t>(sleep_us * 1000.0));
    {
      std::unique_lock lock(mutex_);
      if (cv_.wait_until(lock, deadline,
                         [this] { return stop_requested_; })) {
        return;
      }
    }

    std::vector<SampledStack> stacks = sample_span_stacks();
    std::string key;
    std::lock_guard lock(mutex_);
    ++ticks_;
    ticks_counter.inc();
    for (const SampledStack& stack : stacks) {
      key.clear();
      for (std::size_t i = 0; i < stack.frames.size(); ++i) {
        if (i > 0) key += ';';
        key += stack.frames[i];
      }
      if (key.empty()) continue;
      ++folded_[key];
      ++total_samples_;
      samples_counter.inc();
    }
  }
}

}  // namespace rups::obs
