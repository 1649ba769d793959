#include "spans.h"

#include <cstring>

namespace perfbench {

using updlrm::telemetry::EventKind;
using updlrm::telemetry::TraceEvent;

SelfTimes ComputeSelfTimes(const std::vector<TraceEvent>& events) {
  struct Open {
    const char* name;
    bool ours;
    double start_ns;
    double child_ns;  // covered by directly nested benchmark spans
  };
  SelfTimes out;
  // Begin/End pairs nest per thread track; events of one thread keep
  // their emission order in the snapshot.
  std::map<std::int64_t, std::vector<Open>> stacks;
  for (const TraceEvent& e : events) {
    if (e.pid != updlrm::telemetry::kHostPid) continue;
    if (e.kind == EventKind::kBegin) {
      const bool ours = e.category != nullptr &&
                        std::strcmp(e.category, kSpanCategory) == 0;
      stacks[e.tid].push_back(Open{e.name, ours, e.ts_ns, 0.0});
    } else if (e.kind == EventKind::kEnd) {
      std::vector<Open>& stack = stacks[e.tid];
      if (stack.empty()) {
        out.balanced = false;
        continue;
      }
      const Open open = stack.back();
      stack.pop_back();
      if (!open.ours) continue;
      const double dur = e.ts_ns - open.start_ns;
      out.seconds[open.name] += (dur - open.child_ns) * 1e-9;
      ++out.spans;
      // Credit the nearest enclosing benchmark span.
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->ours) {
          it->child_ns += dur;
          break;
        }
      }
    }
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) out.balanced = false;
  }
  return out;
}

}  // namespace perfbench
