// Fleet-scale sharded serving: one engine per PIM shard, statistical
// tiering, and a cross-shard merge that preserves bit-exactness.
//
// A ShardedEngine is one core::EmbeddingEngine (updlrm/engine.h) built
// from N flat ones: a shard is a group of ranks running a complete
// UpDlrmEngine over the slice of every table the tiering plan
// (partition/tiering.h) assigned to it. Per batch:
//
//   1. fan-out — each shard runs the batch against its sub-trace (the
//      original samples with only shard-owned indices, remapped to
//      dense local row ids); a request's lookups thus route only to
//      the shards owning them;
//   2. merge on pull — the host reads every shard's raw Q15.16 int64
//      pooled accumulators in place (pooled_accumulators()), sums them
//      per lane, folds in the host-DRAM tier's contributions
//      (cold rows gathered from the reference tables at CPU cost), and
//      converts to float once. Integer lane addition is exactly
//      associative, so the merged pooled output is bit-identical to a
//      flat engine over the whole model — and on the degenerate 1-shard
//      plan with no DRAM spill, the whole path IS the flat path.
//
// Timing composes as: per-stage max across shards (shards execute
// concurrently on disjoint rank groups; remote shards price their
// cross-host ingress inside their own transfer model via
// FleetTopologyConfig::host_offset), then a cross-shard merge tree
// priced with pim::PlanReduction over per-shard partial bytes, with the
// DRAM-tier gather overlapping the reduce on the front-end host.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "check/report.h"
#include "common/status.h"
#include "dlrm/model.h"
#include "partition/tiering.h"
#include "pim/system.h"
#include "trace/trace.h"
#include "updlrm/engine.h"
#include "updlrm/report.h"

namespace updlrm::core {

struct ShardedEngineConfig {
  /// Tiering/sharding knobs; tiering.num_shards is the shard count.
  partition::TieringOptions tiering;
  /// Template for each shard's DPU slice (num_dpus, dpus_per_rank,
  /// timing params, functional flag). Each shard's topology is derived
  /// from `fleet_topology` with the shard's host offset filled in.
  pim::DpuSystemConfig shard_system;
  /// Whole-fleet rank/host layout: the ranks of shard s are fleet ranks
  /// [s * R, (s + 1) * R) where R = shard_system ranks. Prices the
  /// cross-shard merge tree and each remote shard's ingress.
  pim::FleetTopologyConfig fleet_topology;

  Status Validate() const;
};

class ShardedEngine final : public EmbeddingEngine {
 public:
  /// `model` == nullptr selects timing-only mode, exactly as for
  /// UpDlrmEngine, and the same malformed inputs return
  /// InvalidArgument. `trace` profiles the tiering plan and serves as
  /// the workload; both must outlive the engine. `options` configures
  /// every per-shard engine (preprofiled / premined_cache are cleared
  /// for the shards — they describe the unsharded trace).
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const dlrm::DlrmModel* model, const dlrm::DlrmConfig& config,
      const trace::Trace& trace, ShardedEngineConfig fleet,
      EngineOptions options);

  /// Batch over explicit sample ids: fan-out to every shard, then the
  /// cross-shard merge.
  Result<BatchResult> RunSamples(std::span<const std::size_t> samples,
                                 const dlrm::DenseInputs* dense) override;

  std::uint32_t num_systems() const override { return num_shards(); }
  const pim::DpuSystem& system(std::uint32_t s) const override {
    return shard(s).dpu_system();
  }
  /// Total violations: fleet-level plus every shard engine's.
  std::uint64_t check_violations() const override;
  /// Minimum over the shards.
  IoRegions MinIoRegions() const override;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const UpDlrmEngine& shard(std::uint32_t s) const {
    UPDLRM_CHECK(s < shards_.size());
    return *shards_[s];
  }
  const partition::TierShardingPlan& tier_plan() const { return plan_; }

  /// Fleet-level audit report (shard coverage, tier capacity, fleet
  /// reduction shape); per-shard engine reports live in shard(s).
  const check::CheckReport& fleet_check_report() const { return report_; }

 private:
  ShardedEngine(const dlrm::DlrmModel* model, dlrm::DlrmConfig config,
                const trace::Trace& trace, ShardedEngineConfig fleet,
                EngineOptions options);

  Status Setup();
  Status BuildShardInputs();

  ShardedEngineConfig fleet_;

  partition::TierShardingPlan plan_;
  // Per-shard sub-workloads: sub-trace (local row ids), sub-config
  // (shard table shapes), sub-model (extracted rows; empty when
  // timing-only). Kept alive for the shard engines' lifetime.
  std::vector<trace::Trace> sub_traces_;
  std::vector<dlrm::DlrmConfig> sub_configs_;
  std::vector<dlrm::DlrmModel> sub_models_;
  // Host-DRAM tier: per-table CSR of each sample's cold indices
  // (global row ids into the reference tables).
  std::vector<trace::TableTrace> dram_traces_;
  std::uint64_t dram_working_set_bytes_ = 0;

  std::vector<std::unique_ptr<pim::DpuSystem>> systems_;
  std::vector<std::unique_ptr<UpDlrmEngine>> shards_;

  // Merge scratch, reused across batches.
  std::vector<std::int64_t> merged_acc_;
  std::vector<std::int64_t> dram_bag_;
  std::vector<std::uint64_t> shard_partial_bytes_;

  check::CheckReport report_;
};

}  // namespace updlrm::core
