// Repository benchmark entry point:
//   perfbench --workload paper_pair|city_rounds|stream_urban --seed N
//             --seconds S --trace 0|1 [--size tiny|full]
// Prints report lines ("# ...") and, last, one JSON result line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_pair|city_rounds|stream_urban --seed N --seconds S "
               "--trace 0|1 [--size tiny|full]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") return usage("bad --size");
      opt.tiny = value == "tiny";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (opt.workload == "paper_pair") {
    run = perfbench::run_paper_pair;
  } else if (opt.workload == "city_rounds") {
    run = perfbench::run_city_rounds;
  } else if (opt.workload == "stream_urban") {
    run = perfbench::run_stream_urban;
  } else {
    return usage("unknown or missing --workload");
  }

  perfbench::Report report(opt.trace);
  report.line("workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
              " seconds=" + std::to_string(opt.seconds) +
              " trace=" + (opt.trace ? "1" : "0") +
              " size=" + (opt.tiny ? "tiny" : "full"));
  try {
    run(opt, report);
  } catch (const std::exception& e) {
    ++report.failed;
    report.check(false, std::string("exception: ") + e.what());
  }
  report.print_result();
  return 0;
}
