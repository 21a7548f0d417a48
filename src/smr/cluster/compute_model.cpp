#include "smr/cluster/compute_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "smr/common/error.hpp"

namespace smr::cluster {

namespace {
// Foreground work never fully starves even under extreme background load.
constexpr double kMinCpuRemnant = 0.05;                                   // cores
constexpr double kMinDiskRemnant = 1.0 * static_cast<double>(kMiB);       // bytes/s
}  // namespace

double ComputeModel::thread_efficiency(const NodeSpec& node, int threads) {
  SMR_CHECK(threads >= 0);
  if (threads <= 1) return 1.0;
  const double extra = static_cast<double>(threads - 1);
  const double beyond_cores = static_cast<double>(std::max(0, threads - node.cores));
  return 1.0 / (1.0 + node.thread_overhead * extra + node.sched_overhead * beyond_cores);
}

double ComputeModel::paging_factor(const NodeSpec& node, Bytes memory_demand) {
  SMR_CHECK(memory_demand >= 0);
  const double available = static_cast<double>(node.available_memory());
  const double demand = static_cast<double>(memory_demand);
  if (demand <= available) return 1.0;
  const double over = demand / available - 1.0;
  return 1.0 / (1.0 + node.paging_penalty * over * over);
}

double ComputeModel::disk_efficiency(const NodeSpec& node, int streams) {
  SMR_CHECK(streams >= 0);
  if (streams <= 1) return 1.0;
  return 1.0 / (1.0 + node.seek_overhead * static_cast<double>(streams - 1));
}

double ComputeModel::effective_cpu(const NodeSpec& node, const Occupancy& occ) {
  return static_cast<double>(node.cores) * node.cpu_speed *
         thread_efficiency(node, occ.threads) * paging_factor(node, occ.memory_demand);
}

double ComputeModel::effective_disk(const NodeSpec& node, const Occupancy& occ) {
  return node.disk_bandwidth * disk_efficiency(node, occ.io_streams) *
         paging_factor(node, occ.memory_demand);
}

void ComputeModel::load_to_flow(const NodeSpec& node, const PhaseLoad& load,
                                FlowDemand& flow) {
  enum : int { kCpu = 0, kDisk = 1 };
  flow.uses.clear();
  // A single thread can use at most `max_cores` cores; that caps the rate
  // of CPU-bearing phases regardless of idle capacity elsewhere.
  double cap = load.rate_cap;
  if (load.cpu_per_byte > 0.0) {
    const double single_thread =
        load.max_cores * node.cpu_speed / load.cpu_per_byte;
    cap = (cap == kNoCap) ? single_thread : std::min(cap, single_thread);
    flow.uses.push_back({kCpu, load.cpu_per_byte});
  }
  if (load.disk_per_byte > 0.0) {
    flow.uses.push_back({kDisk, load.disk_per_byte});
  }
  SMR_CHECK_MSG(cap != kNoCap || !flow.uses.empty(),
                "phase with no resource use and no cap would be unbounded");
  flow.rate_cap = cap;
}

std::array<double, 2> ComputeModel::capacities_for(const NodeSpec& node,
                                                   const Occupancy& occ,
                                                   const BackgroundLoad& background) {
  return {std::max(kMinCpuRemnant, effective_cpu(node, occ) - background.cpu_cores),
          std::max(kMinDiskRemnant, effective_disk(node, occ) - background.disk_rate)};
}

std::vector<double> ComputeModel::solve(const NodeSpec& node, const Occupancy& occ,
                                        const BackgroundLoad& background,
                                        std::span<const PhaseLoad> loads) {
  if (loads.empty()) return {};

  const std::array<double, 2> capacities = capacities_for(node, occ, background);
  std::vector<FlowDemand> flows(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    load_to_flow(node, loads[i], flows[i]);
  }
  return max_min_allocate(capacities, flows);
}

namespace {

bool same_load(const PhaseLoad& a, const PhaseLoad& b) {
  return a.cpu_per_byte == b.cpu_per_byte && a.disk_per_byte == b.disk_per_byte &&
         a.rate_cap == b.rate_cap && a.max_cores == b.max_cores;
}

}  // namespace

const std::vector<double>& ComputeModel::solve_cached(
    const NodeSpec& node, const Occupancy& occ, const BackgroundLoad& background,
    std::span<const PhaseLoad> loads) {
  if (loads.empty()) return empty_;

  // Raw-input memo: the capacities and flows are pure functions of
  // (node, occ, background, loads), and the node spec is fixed per
  // instance, so bit-equal raw inputs are guaranteed to reproduce a
  // remembered result without the load -> flow conversion or the solver's
  // own cache comparison.
  const MemoEntry* hit = memo_.find([&](const MemoEntry& entry) {
    return occ.threads == entry.occ.threads && occ.io_streams == entry.occ.io_streams &&
           occ.memory_demand == entry.occ.memory_demand &&
           background.cpu_cores == entry.background.cpu_cores &&
           background.disk_rate == entry.background.disk_rate &&
           loads.size() == entry.loads.size() &&
           std::equal(loads.begin(), loads.end(), entry.loads.begin(), same_load);
  });
  if (hit != nullptr) {
    ++memo_hits_;
    return hit->rates;
  }

  const std::array<double, 2> capacities = capacities_for(node, occ, background);
  if (flows_scratch_.size() < loads.size()) flows_scratch_.resize(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    load_to_flow(node, loads[i], flows_scratch_[i]);
  }
  const std::vector<double>& rates =
      solver_.solve(capacities, std::span(flows_scratch_).first(loads.size()));
  MemoEntry& entry = memo_.replace();
  entry.occ = occ;
  entry.background = background;
  entry.loads.assign(loads.begin(), loads.end());
  entry.rates.assign(rates.begin(), rates.end());
  return entry.rates;
}

MaxMinSolver::Stats ComputeModel::solver_stats() const {
  MaxMinSolver::Stats stats = solver_.stats();
  stats.calls += memo_hits_;
  stats.cache_hits += memo_hits_;
  return stats;
}

}  // namespace smr::cluster
