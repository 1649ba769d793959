// The correctness gate every benchmark run passes through.
//
// Three families of checks, all from the public results:
//   * accounting — offered = completed + shed, every completed request
//     is attributed to exactly one executed batch;
//   * schedule — each batch's instants are ordered, the schedule
//     charged each stage exactly the engine's cost for it, and the
//     batch's per-layer parts sum to its latency;
//   * outputs — a small-universe functional slice of the workload's
//     shape matches the reference model bit for bit
//     (dlrm::DlrmModel::PooledEmbeddingsFixed / ForwardBatch), and the
//     sharded slice matches the flat engine.
// A failed check makes the run incorrect; a wrong output also counts
// as a failed request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

class Gate {
 public:
  void Expect(bool ok, const std::string& what);
  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }
  /// The first few violation messages.
  const std::vector<std::string>& messages() const { return messages_; }
  bool ok() const { return violations_ == 0; }

 private:
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<std::string> messages_;
};

/// Accounting and schedule checks of one serve run.
void CheckRun(const ServeRun& run, const std::string& label, Gate& gate);

/// Deliberate corruption, for the gate's own tests.
enum class Fault { kNone, kWrongOutput };

struct FunctionalResult {
  std::uint64_t outputs = 0;  // samples compared
  std::uint64_t wrong = 0;    // samples with any mismatching value
};

/// Runs the functional slice of `spec` (trace seeded by `seed`) and
/// compares every output with the reference model.
FunctionalResult CheckFunctionalSlice(const WorkloadSpec& spec,
                                      std::uint64_t seed, Gate& gate,
                                      Fault fault = Fault::kNone);

}  // namespace perfbench
