#pragma once

// The three benchmark workloads (README.md says why each exists). Each
// generates its inputs from the seed before any timing, prints its config,
// runs passes until opt.seconds are used up, checks its outputs and fills
// the report: end-to-end metrics untraced, per-layer metrics traced.

#include "common.hpp"

namespace perfbench {

void run_paper_pair(const Options& opt, Report& report);
void run_city_rounds(const Options& opt, Report& report);
void run_stream_urban(const Options& opt, Report& report);

/// "# reconcile: ..." line plus trace.unattributed_share: the traced
/// end-to-end time against the sum of the layer times measured inside it.
void reconcile(Report& report, const char* what, double end_to_end_s,
               const std::vector<std::pair<const char*, double>>& layers_s);

}  // namespace perfbench
