// Static auditor of partition plans and the derived per-batch plans.
//
// AuditPlan re-derives, independently of partition::PartitionPlan::
// Validate, the structural invariants the placement and routing layers
// rely on — exact non-overlapping row coverage, per-bin capacity, cache
// co-location, the §3.1 tile-shape claim — and reports violations
// through CheckReport instead of failing, so a single audit pass can
// surface every broken invariant at once. The smaller audits cover the
// per-batch plans the engine derives at run time: the dedup planner's
// uint16 gather-map bound, the WRAM hot-row tier's capacity clamp, and
// the coalesced transfer planner's never-worse-than-classic guarantee.
#pragma once

#include <cstdint>
#include <span>

#include "check/report.h"
#include "common/units.h"
#include "partition/plan.h"

namespace updlrm::check {

/// Byte budgets the plan must fit, plus the tile-shape claim. The
/// engine fills these from the group's MramLayout (what placement
/// actually carved out), so the audit is against the real regions, not
/// the planner's own arithmetic.
struct PlanAuditLimits {
  /// Per-bin EMT-region bytes (uncached, unreplicated rows).
  std::uint64_t emt_bytes = 0;
  /// Per-bin cache-region bytes.
  std::uint64_t cache_bytes = 0;
  /// True when the plan's Nc came from the §3.1 uniform-model tile
  /// optimizer, which is only calibrated for even Nc <= this bound.
  bool claims_uniform_model = false;
  std::uint32_t max_model_nc = 8;
};

/// Audits one table's partition plan. Fires kPlanCoverage,
/// kPlanCapacity, kCacheColocation and kTileShape; a clean plan adds
/// nothing to `report`. `emt_rows_per_bin` is the plan's
/// EmtRowsPerBin() as placement laid it out (TableGroup's copy); the
/// capacity audit reads it once the plan's bins are proven in range.
void AuditPlan(const partition::PartitionPlan& plan,
               std::span<const std::uint64_t> emt_rows_per_bin,
               const PlanAuditLimits& limits, CheckReport* report);

/// Audits one applied dedup plan: gather refs are 16-bit indices into
/// the unique list, so an applied plan with more than 65535 unique
/// entries (or whose per-bin reference count cannot be replayed through
/// uint16 refs) is wire-format corruption. Fires kGatherBounds.
void AuditDedupBounds(bool applied, std::uint64_t unique_total,
                      std::uint64_t refs, CheckReport* report);

/// Audits one bin's pinned WRAM hot-row tier against the kernel's
/// capacity clamp (EmbeddingKernelCostModel::MaxWramCacheRows). Fires
/// kWramCapacity.
void AuditWramCapacity(std::uint32_t bin, std::uint32_t pinned_rows,
                       std::uint32_t max_rows, CheckReport* report);

/// Audits one coalesced transfer plan against the two classic paths it
/// promises never to lose to (padded-parallel and sequential-ragged).
/// `slack` absorbs float rounding. Fires kTransferPlan.
void AuditTransferPlan(Nanos plan_ns, Nanos padded_ns, Nanos ragged_ns,
                       CheckReport* report, double slack = 1e-9);

}  // namespace updlrm::check
