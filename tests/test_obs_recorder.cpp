// Flight recorder: ring semantics, JSON bundles, and above all thread
// safety — N writers appending while a reader snapshots and dumps must
// never tear an event, exceed capacity, or reorder one thread's events.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/json.hpp"

namespace rups {
namespace {

namespace fs = std::filesystem;

fs::path fresh_temp_dir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("rups_recorder_") + tag);
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightRecorder, RecordsInOrderAndBoundsCapacity) {
  obs::FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_TRUE(rec.recent().empty());

  for (int i = 0; i < 3; ++i) {
    rec.record(obs::EventType::kSeekStarted, "t", i);
  }
  auto events = rec.recent();
  ASSERT_EQ(events.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].v0, i);
    EXPECT_EQ(events[i].seq, static_cast<std::uint64_t>(i));
  }

  // Overflow: the oldest events are overwritten, order is preserved.
  for (int i = 3; i < 10; ++i) {
    rec.record(obs::EventType::kSeekStarted, "t", i);
  }
  events = rec.recent();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].v0, 6.0 + static_cast<double>(i));
  }
  EXPECT_EQ(rec.total_recorded(), 10u);

  rec.clear();
  EXPECT_TRUE(rec.recent().empty());
  EXPECT_EQ(rec.total_recorded(), 10u);  // clear drops events, not history

  rec.set_capacity(2);
  rec.record(obs::EventType::kAnomaly, "t");
  EXPECT_EQ(rec.capacity(), 2u);
  EXPECT_EQ(rec.recent().size(), 1u);
}

TEST(FlightRecorder, EventTypeNamesAreStableAndDistinct) {
  const obs::EventType all[] = {
      obs::EventType::kSeekStarted,     obs::EventType::kSeekAccepted,
      obs::EventType::kSeekRejected,    obs::EventType::kEstimateEmitted,
      obs::EventType::kEstimateMissing, obs::EventType::kEstimateChecked,
      obs::EventType::kExchangeSent,    obs::EventType::kExchangeReceived,
      obs::EventType::kAnomaly};
  std::map<std::string, int> seen;
  for (const auto type : all) ++seen[obs::event_type_name(type)];
  EXPECT_EQ(seen.size(), std::size(all));
  EXPECT_EQ(seen.count("seek_rejected"), 1u);
  EXPECT_EQ(seen.count("anomaly"), 1u);
}

TEST(FlightRecorder, EventsToJsonIsParseable) {
  EXPECT_EQ(obs::events_to_json({}), "[]");

  obs::FlightRecorder rec(8);
  rec.record(obs::EventType::kSeekAccepted, "syn.seek", 1.5, 100.0, 0.8);
  rec.record(obs::EventType::kExchangeSent, "v2v.exchange", 1024.0, 3.0);
  const auto doc = util::JsonValue::parse(obs::events_to_json(rec.recent()));
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.as_array().size(), 2u);
  const auto& first = doc.as_array()[0];
  EXPECT_EQ(first.string_or("type", ""), "seek_accepted");
  EXPECT_EQ(first.string_or("label", ""), "syn.seek");
  const auto& v = first.find("v")->as_array();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0].as_number(), 1.5);
  EXPECT_DOUBLE_EQ(v[2].as_number(), 0.8);
}

TEST(FlightRecorder, AnomalyDumpsDiagnosticsBundle) {
  const fs::path dir = fresh_temp_dir("bundle");
  obs::FlightRecorder rec(16);
  rec.set_dump_dir(dir);
  rec.set_config_text("{\"campaign\": 42}");
  rec.record(obs::EventType::kSeekRejected, "syn.below_threshold", 0.3, 100.0,
             0.7);

  const fs::path bundle = rec.anomaly("test.trigger", "synthetic fault");
  ASSERT_FALSE(bundle.empty());
  ASSERT_TRUE(fs::exists(bundle));
  EXPECT_EQ(rec.anomalies(), 1u);

  const auto doc = util::JsonValue::parse(slurp(bundle));
  EXPECT_EQ(doc.string_or("kind", ""), "rups_diagnostics_bundle");
  EXPECT_EQ(doc.string_or("anomaly", ""), "test.trigger");
  EXPECT_EQ(doc.string_or("detail", ""), "synthetic fault");
  EXPECT_DOUBLE_EQ(doc.find("config")->number_or("campaign", 0.0), 42.0);
  ASSERT_NE(doc.find("metrics"), nullptr);
  ASSERT_NE(doc.find("events"), nullptr);
  const auto& events = doc.find("events")->as_array();
  ASSERT_GE(events.size(), 2u);  // the rejection + the anomaly marker
  EXPECT_EQ(events[0].string_or("type", ""), "seek_rejected");
  EXPECT_EQ(events.back().string_or("type", ""), "anomaly");

  fs::remove_all(dir);
}

TEST(FlightRecorder, DumpBudgetAndDisabledDir) {
  // No dump dir: anomalies are counted and recorded, nothing is written.
  obs::FlightRecorder quiet(8);
  EXPECT_TRUE(quiet.anomaly("a", "no dir").empty());
  EXPECT_EQ(quiet.anomalies(), 1u);
  ASSERT_EQ(quiet.recent().size(), 1u);
  EXPECT_EQ(quiet.recent()[0].type, obs::EventType::kAnomaly);

  // Dump budget: an anomaly storm writes at most max_dumps bundles.
  const fs::path dir = fresh_temp_dir("budget");
  obs::FlightRecorder rec(8);
  rec.set_dump_dir(dir);
  rec.set_max_dumps(2);
  EXPECT_FALSE(rec.anomaly("a", "1").empty());
  EXPECT_FALSE(rec.anomaly("a", "2").empty());
  EXPECT_TRUE(rec.anomaly("a", "3").empty());
  EXPECT_EQ(rec.anomalies(), 3u);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++files;
  EXPECT_EQ(files, 2u);
  fs::remove_all(dir);
}

// The tier-1 concurrency contract: writers on N threads, a reader thread
// snapshotting and dumping throughout. Each writer i emits payloads
// (v0=k, v1=2k, v2=3k) with its own label; any torn event breaks the
// v1/v2 invariant, any per-thread reorder breaks monotonicity of v0.
TEST(FlightRecorder, ConcurrentAppendSnapshotAndDump) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 4000;
  constexpr std::size_t kCapacity = 512;
  static const char* kLabels[kThreads] = {"w0", "w1", "w2", "w3"};

  const fs::path dir = fresh_temp_dir("concurrent");
  obs::FlightRecorder rec(kCapacity);
  rec.set_dump_dir(dir);
  rec.set_max_dumps(4);

  std::atomic<bool> start{false};
  std::atomic<std::size_t> writers_done{0};

  const auto verify_snapshot = [&](const std::vector<obs::RecorderEvent>& ev) {
    ASSERT_LE(ev.size(), kCapacity);
    std::uint64_t last_seq = 0;
    bool have_seq = false;
    std::map<std::string, double> last_v0;
    for (const auto& e : ev) {
      if (have_seq) {
        ASSERT_GT(e.seq, last_seq);  // global order, no dupes
      }
      last_seq = e.seq;
      have_seq = true;
      const std::string label = e.label;
      if (label.rfind("w", 0) != 0) continue;  // anomaly markers
      ASSERT_DOUBLE_EQ(e.v1, 2.0 * e.v0) << "torn event payload";
      ASSERT_DOUBLE_EQ(e.v2, 3.0 * e.v0) << "torn event payload";
      const auto it = last_v0.find(label);
      if (it != last_v0.end()) {
        ASSERT_GT(e.v0, it->second) << "thread " << label << " reordered";
      }
      last_v0[label] = e.v0;
    }
  };

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const auto v = static_cast<double>(k);
        rec.record(obs::EventType::kSeekStarted, kLabels[t], v, 2.0 * v,
                   3.0 * v);
      }
      writers_done.fetch_add(1);
    });
  }

  std::thread reader([&] {
    while (!start.load()) std::this_thread::yield();
    std::size_t dumps = 0;
    // On a single-core host the writers may finish before this thread is
    // scheduled; the do/while still guarantees both dumps happen.
    do {
      verify_snapshot(rec.recent());
      if (dumps < 2) {
        (void)rec.anomaly("test.concurrent", "mid-flight dump");
        ++dumps;
      }
    } while (writers_done.load() < kThreads || dumps < 2);
  });

  start.store(true);
  for (auto& w : writers) w.join();
  reader.join();

  // Final state: every event accounted for, ring bounded, order intact.
  const auto final_events = rec.recent();
  verify_snapshot(final_events);
  EXPECT_EQ(final_events.size(), kCapacity);
  EXPECT_GE(rec.total_recorded(), kThreads * kPerThread);

  // Mid-flight bundles parse and respect the capacity bound too.
  std::size_t bundles = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto doc = util::JsonValue::parse(slurp(entry.path()));
    EXPECT_EQ(doc.string_or("kind", ""), "rups_diagnostics_bundle");
    EXPECT_LE(doc.find("events")->as_array().size(), kCapacity);
    ++bundles;
  }
  EXPECT_EQ(bundles, 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rups
