// The executed embedding schedule of one served batch.
//
// Serving runs every batch through pipeline::DataFlowExecutor
// (pipeline/executor.h). Embedding-only serving is the data-flow plan
// that places no dense work, so its schedule reduces to the three
// embedding stages of Fig. 4 on two resources: the host + DIMM buses
// (stage-1 index push, stage-3 partial-sum pull and CPU aggregation)
// and the DPUs (stage-2 lookup/reduce). serve::RunServeSimulation
// projects each executed batch into this record.
#pragma once

#include "common/units.h"
#include "updlrm/report.h"

namespace updlrm::serve {

/// The executed schedule of one batch.
struct ExecutedBatch {
  core::StageBreakdown stages;
  Nanos submit_ns = 0.0;    // cut instant (stage 1 may start here)
  Nanos s1_start_ns = 0.0;  // CPU->DPU index push
  Nanos s1_end_ns = 0.0;
  Nanos s2_start_ns = 0.0;  // DPU lookup/reduce
  Nanos s2_end_ns = 0.0;
  Nanos s3_start_ns = 0.0;  // DPU->CPU pull + CPU aggregation
  Nanos s3_end_ns = 0.0;    // batch completion
};

}  // namespace updlrm::serve
