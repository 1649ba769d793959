#include "updlrm/scaleout.h"

#include <algorithm>
#include <string>
#include <utility>

#include "check/scaleout_audit.h"
#include "common/simd.h"
#include "common/units.h"
#include "pim/reduction.h"
#include "trace/profiler.h"

namespace updlrm::core {

namespace {

std::uint32_t RanksPerShard(const pim::DpuSystemConfig& shard_system) {
  return static_cast<std::uint32_t>(
      CeilDiv(shard_system.num_dpus, shard_system.dpus_per_rank));
}

}  // namespace

Status ShardedEngineConfig::Validate() const {
  UPDLRM_RETURN_IF_ERROR(tiering.Validate());
  UPDLRM_RETURN_IF_ERROR(shard_system.Validate());
  UPDLRM_RETURN_IF_ERROR(fleet_topology.Validate());
  const std::uint32_t ranks = RanksPerShard(shard_system);
  const std::uint32_t rph = fleet_topology.ranks_per_host;
  if (rph > 0 && rph % ranks != 0 && ranks % rph != 0) {
    return Status::InvalidArgument(
        "shards must align to host boundaries: ranks_per_host and the "
        "per-shard rank count must divide one another");
  }
  if (fleet_topology.host_offset != 0) {
    return Status::InvalidArgument(
        "fleet_topology.host_offset is derived per shard; leave it 0");
  }
  return Status::Ok();
}

ShardedEngine::ShardedEngine(const dlrm::DlrmModel* model,
                             dlrm::DlrmConfig config,
                             const trace::Trace& trace,
                             ShardedEngineConfig fleet,
                             EngineOptions options)
    : EmbeddingEngine(model, std::move(config), trace, std::move(options)),
      fleet_(std::move(fleet)) {}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const dlrm::DlrmModel* model, const dlrm::DlrmConfig& config,
    const trace::Trace& trace, ShardedEngineConfig fleet,
    EngineOptions options) {
  UPDLRM_RETURN_IF_ERROR(fleet.Validate());
  auto engine = std::unique_ptr<ShardedEngine>(new ShardedEngine(
      model, config, trace, std::move(fleet), std::move(options)));
  UPDLRM_RETURN_IF_ERROR(engine->ValidateInputs());
  UPDLRM_RETURN_IF_ERROR(engine->Setup());
  return engine;
}

Status ShardedEngine::BuildShardInputs() {
  const std::uint32_t shards = fleet_.tiering.num_shards;
  const std::uint32_t tables = config_.num_tables;
  const std::uint32_t dim = config_.embedding_dim;
  const std::size_t samples = trace_.num_samples();

  sub_configs_.assign(shards, config_);
  for (std::uint32_t s = 0; s < shards; ++s) {
    sub_configs_[s].table_rows.assign(tables, 1);
    // Extracted shard tables never share a backing store — every shard
    // slice of every table is distinct row content.
    sub_configs_[s].share_table_content = false;
    for (std::uint32_t t = 0; t < tables; ++t) {
      sub_configs_[s].table_rows[t] =
          std::max<std::uint64_t>(1, plan_.tables[t].shard_rows[s]);
    }
  }

  // Sub-traces: one pass over each sample appends every index to its
  // owner's buffer, remapped to the shard's dense local id (DRAM-tier
  // rows keep their global ids: the reference serves them). Indices
  // ascend within a sample and locals ascend with global row order per
  // owner, so every buffer stays sorted-unique for AppendSample.
  sub_traces_.resize(shards);
  dram_traces_.assign(tables, trace::TableTrace());
  for (std::uint32_t s = 0; s < shards; ++s) {
    sub_traces_[s].items_per_table.assign(
        sub_configs_[s].table_rows.begin(),
        sub_configs_[s].table_rows.end());
    sub_traces_[s].tables.resize(tables);
  }
  std::vector<std::vector<std::uint32_t>> remapped(shards);
  std::vector<std::uint32_t> dram_rows;
  for (std::uint32_t t = 0; t < tables; ++t) {
    const partition::TableTierPlan& tiers = plan_.tables[t];
    for (std::size_t i = 0; i < samples; ++i) {
      for (auto& buffer : remapped) buffer.clear();
      dram_rows.clear();
      for (const std::uint32_t r : trace_.tables[t].Sample(i)) {
        const std::uint32_t owner = tiers.owner[r];
        if (owner == partition::kHostDramShard) {
          dram_rows.push_back(r);
        } else {
          remapped[owner].push_back(tiers.local[r]);
        }
      }
      for (std::uint32_t s = 0; s < shards; ++s) {
        sub_traces_[s].tables[t].AppendSample(remapped[s]);
      }
      dram_traces_[t].AppendSample(dram_rows);
    }
    dram_working_set_bytes_ += tiers.dram_rows * dim * 4ULL;
  }

  // Sub-models: one pass over each table's rows copies every owned row
  // into its shard's dense table (ascending global id == ascending
  // local id), so the contents are identical.
  if (model_ != nullptr) {
    std::vector<std::vector<std::shared_ptr<const dlrm::EmbeddingTable>>>
        sub_tables(shards);
    std::vector<std::vector<float>> data(shards);
    for (std::uint32_t t = 0; t < tables; ++t) {
      const partition::TableTierPlan& tiers = plan_.tables[t];
      const dlrm::EmbeddingTable& ref = model_->table(t);
      for (std::uint32_t s = 0; s < shards; ++s) {
        data[s].clear();
        data[s].reserve(sub_configs_[s].table_rows[t] * dim);
      }
      for (std::uint64_t r = 0; r < tiers.owner.size(); ++r) {
        const std::uint32_t owner = tiers.owner[r];
        if (owner == partition::kHostDramShard) continue;
        const auto row = ref.Row(r);
        data[owner].insert(data[owner].end(), row.begin(), row.end());
      }
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (data[s].empty()) data[s].assign(dim, 0.0f);  // 1-row placeholder
        auto table = dlrm::EmbeddingTable::FromData(
            sub_configs_[s].table_rows[t], dim, std::move(data[s]));
        if (!table.ok()) return table.status();
        sub_tables[s].push_back(std::make_shared<const dlrm::EmbeddingTable>(
            std::move(table).value()));
      }
    }
    sub_models_.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      auto sub_model = dlrm::DlrmModel::CreateWithTables(
          sub_configs_[s], std::move(sub_tables[s]));
      if (!sub_model.ok()) return sub_model.status();
      sub_models_.push_back(std::move(sub_model).value());
    }
  }
  return Status::Ok();
}

Status ShardedEngine::Setup() {
  const std::uint32_t shards = fleet_.tiering.num_shards;
  const std::uint32_t tables = config_.num_tables;

  // Tiering plan from the access profiles (shared ones when provided —
  // they describe the unsharded trace, which is exactly what the
  // tiering planner consumes).
  std::vector<trace::TableProfile> local_profiles;
  std::span<const trace::TableProfile> profiles;
  if (options_.preprofiled != nullptr) {  // shape-checked at Create
    profiles = *options_.preprofiled;
  } else {
    local_profiles.reserve(tables);
    for (std::uint32_t t = 0; t < tables; ++t) {
      local_profiles.push_back(trace::ProfileTable(
          trace_.tables[t], trace_.ItemsInTable(t)));
    }
    profiles = local_profiles;
  }
  auto plan = partition::BuildTierShardingPlan(profiles, fleet_.tiering);
  if (!plan.ok()) return plan.status();
  plan_ = std::move(plan).value();

  if (options_.check_mode) {
    for (std::uint32_t t = 0; t < tables; ++t) {
      check::AuditShardCoverage(t, plan_.tables[t], shards, &report_);
      check::AuditTierCapacity(t, plan_.tables[t], fleet_.tiering,
                               &report_);
    }
  }

  UPDLRM_RETURN_IF_ERROR(BuildShardInputs());

  // Per-shard systems and engines. Shard s owns fleet ranks
  // [s * R, (s + 1) * R); its transfer model prices cross-host ingress
  // itself via the host offset of its first rank.
  const std::uint32_t ranks = RanksPerShard(fleet_.shard_system);
  const std::uint32_t rph = fleet_.fleet_topology.ranks_per_host;
  systems_.reserve(shards);
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    pim::DpuSystemConfig sc = fleet_.shard_system;
    sc.topology = fleet_.fleet_topology;
    sc.topology.host_offset =
        rph == 0 ? 0 : (static_cast<std::uint64_t>(s) * ranks) / rph;
    auto system = pim::DpuSystem::Create(sc);
    if (!system.ok()) return system.status();
    systems_.push_back(std::move(system).value());

    EngineOptions sub = options_;
    sub.preprofiled = nullptr;  // profiles describe the full trace
    sub.premined_cache = nullptr;
    if (fleet_.tiering.wram_rows > 0) {
      sub.wram_cache_rows = fleet_.tiering.wram_rows;
    }
    auto engine = UpDlrmEngine::Create(
        model_ != nullptr ? &sub_models_[s] : nullptr, sub_configs_[s],
        sub_traces_[s], systems_.back().get(), std::move(sub));
    if (!engine.ok()) return engine.status();
    shards_.push_back(std::move(engine).value());
  }
  return Status::Ok();
}

Result<BatchResult> ShardedEngine::RunSamples(
    std::span<const std::size_t> samples, const dlrm::DenseInputs* dense) {
  const std::size_t batch = samples.size();
  const std::uint32_t tables = config_.num_tables;
  const std::uint32_t dim = config_.embedding_dim;
  const std::uint32_t shards = num_shards();
  const bool fn = functional();
  const std::size_t pooled_size =
      batch * static_cast<std::size_t>(tables) * dim;

  BatchResult out;
  shard_partial_bytes_.assign(shards, 0);
  if (fn) merged_acc_.assign(pooled_size, 0);

  // Fan-out: every shard runs the batch against its slice (and rejects
  // an empty batch or sample ids outside the trace before the DRAM-tier
  // gather below reads them). Shards execute concurrently on disjoint
  // rank groups, so the merged stage times are per-stage maxima; the
  // int64 shard accumulators merge in fixed shard order (exactly
  // associative, so the order is cosmetic).
  for (std::uint32_t s = 0; s < shards; ++s) {
    auto r = shards_[s]->RunSamples(samples, nullptr);
    if (!r.ok()) return r.status();
    out.stages.cpu_to_dpu =
        std::max(out.stages.cpu_to_dpu, r->stages.cpu_to_dpu);
    out.stages.dpu_lookup =
        std::max(out.stages.dpu_lookup, r->stages.dpu_lookup);
    out.stages.dpu_to_cpu =
        std::max(out.stages.dpu_to_cpu, r->stages.dpu_to_cpu);
    out.stages.cpu_aggregate =
        std::max(out.stages.cpu_aggregate, r->stages.cpu_aggregate);
    out.bottom_mlp = std::max(out.bottom_mlp, r->bottom_mlp);
    out.interaction_top = std::max(out.interaction_top, r->interaction_top);
    out.max_index_bytes = std::max(out.max_index_bytes, r->max_index_bytes);
    out.max_output_bytes =
        std::max(out.max_output_bytes, r->max_output_bytes);
    shard_partial_bytes_[s] = r->partial_bytes;
    out.partial_bytes += r->partial_bytes;
    if (s == 0) out.dpu_trace = r->dpu_trace;
    if (fn) {
      const std::span<const std::int64_t> acc =
          shards_[s]->pooled_accumulators();
      UPDLRM_CHECK(acc.size() == pooled_size);
      simd::AddI64ToI64(acc.data(), merged_acc_.data(), pooled_size);
    }
  }

  // Host-DRAM tier: cold rows gathered from the reference tables on the
  // front-end host, overlapping the shard-side reduce.
  std::uint64_t dram_lookups = 0;
  for (std::uint32_t t = 0; t < tables; ++t) {
    const trace::TableTrace& cold = dram_traces_[t];
    for (std::size_t i = 0; i < batch; ++i) {
      const auto idx = cold.Sample(samples[i]);
      dram_lookups += idx.size();
      if (!fn || idx.empty()) continue;
      dram_bag_.assign(dim, 0);
      model_->table(t).BagSumFixed(idx, dram_bag_);
      simd::AddI64ToI64(
          dram_bag_.data(),
          merged_acc_.data() + (i * tables + t) * static_cast<std::size_t>(dim),
          dim);
    }
  }

  // Cross-shard merge price: PlanReduction over per-shard partial
  // bytes, with each shard acting as one "rank" of a shard-granular
  // topology (hosts rescaled to shard units). The shard-internal
  // aggregate is already inside the per-stage max; the fleet charge
  // adds the merge tree on top, with the DRAM gather overlapping the
  // concurrent shard reduces.
  pim::FleetTopologyConfig shard_topo_config = fleet_.fleet_topology;
  const std::uint32_t ranks = RanksPerShard(fleet_.shard_system);
  const std::uint32_t rph = fleet_.fleet_topology.ranks_per_host;
  shard_topo_config.ranks_per_host =
      rph == 0 ? 0 : std::max<std::uint32_t>(1, rph / ranks);
  const pim::FleetTopology shard_topo(shard_topo_config, shards);
  const std::uint64_t pooled_bytes = pooled_size * sizeof(std::int64_t);
  out.reduction =
      pim::PlanReduction(shard_topo, shard_partial_bytes_, pooled_bytes,
                         cpu_.params().stream_bytes_per_sec);
  if (options_.check_mode) {
    check::AuditReductionPlan(out.reduction, shards, &report_);
  }
  Nanos tree_ns = 0.0;
  for (std::uint32_t l = 0; l < out.reduction.levels; ++l) {
    tree_ns +=
        shard_topo.HopTime(pim::MergeLevelHop(shard_topo, l), pooled_bytes);
  }
  const Nanos dram_gather =
      dram_lookups == 0
          ? 0.0
          : cpu_.GatherTime(dram_lookups, dim * 4, dram_working_set_bytes_);
  out.stages.cpu_aggregate =
      std::max(out.stages.cpu_aggregate, dram_gather) + tree_ns;

  out.total = std::max(out.bottom_mlp, out.stages.EmbeddingTotal()) +
              out.interaction_top;

  UPDLRM_RETURN_IF_ERROR(FinishBatch(merged_acc_, samples, dense, out));
  return out;
}

std::uint64_t ShardedEngine::check_violations() const {
  std::uint64_t total = report_.total();
  for (const auto& shard : shards_) total += shard->check_violations();
  return total;
}

EmbeddingEngine::IoRegions ShardedEngine::MinIoRegions() const {
  IoRegions regions;
  for (const auto& shard : shards_) {
    const IoRegions r = shard->MinIoRegions();
    regions.index_bytes = std::min(regions.index_bytes, r.index_bytes);
    regions.output_bytes = std::min(regions.output_bytes, r.output_bytes);
  }
  return regions;
}

}  // namespace updlrm::core
