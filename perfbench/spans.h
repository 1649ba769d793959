// Layer spans recorded from outside the program.
//
// The benchmark wraps each public layer call it makes in a host-clock
// telemetry::TraceSpan under the "perfbench" category; the spans are
// recorded only while the process tracer is on (the traced run). No
// span is added inside src/: the per-layer self times of the traced
// run come from these spans alone.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/tracer.h"

namespace perfbench {

inline constexpr const char* kSpanCategory = "perfbench";

/// Self seconds per span name over the benchmark's own spans: each
/// span's duration minus the part covered by its directly nested
/// benchmark spans (spans the library records inside a layer call
/// count towards that layer). Unbalanced begin/end pairs are an error.
struct SelfTimes {
  std::map<std::string, double> seconds;
  std::size_t spans = 0;
  bool balanced = true;
};
SelfTimes ComputeSelfTimes(
    const std::vector<updlrm::telemetry::TraceEvent>& events);

}  // namespace perfbench
