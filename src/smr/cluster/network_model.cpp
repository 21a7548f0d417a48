#include "smr/cluster/network_model.hpp"

#include <algorithm>

#include "smr/common/error.hpp"

namespace smr::cluster {

std::span<const FlowDemand> NetworkModel::build_problem(
    std::span<const NetFlow> flows, std::span<const int> fetch_streams_per_node, bool collapse,
    Problem& out) const {
  const auto& spec = *spec_;
  const int n = spec.worker_count();
  SMR_CHECK(fetch_streams_per_node.empty() ||
            fetch_streams_per_node.size() == static_cast<std::size_t>(n));

  out.is_p2p_source.assign(static_cast<std::size_t>(n), 0);
  for (const NetFlow& flow : flows) {
    SMR_CHECK_MSG(flow.dst >= 0 && flow.dst < n, "flow with invalid dst " << flow.dst);
    if (flow.src == kInvalidNode) continue;
    SMR_CHECK_MSG(flow.src >= 0 && flow.src < n, "flow with invalid src " << flow.src);
    out.is_p2p_source[static_cast<std::size_t>(flow.src)] = 1;
  }

  // Resource layout: [0, n) receive ports, then the listed transmit ports
  // in ascending node order, then the fabric.  Listed are all n ports
  // (uncollapsed: [n, 2n), fabric 2n), or every point-to-point source plus
  // the first port of each capacity class among the rest.  The ports left
  // out would have no users.
  std::vector<double>& capacities = out.capacities;
  capacities.clear();
  for (int i = 0; i < n; ++i) {
    double rx = spec.workers[static_cast<std::size_t>(i)].nic_bandwidth;
    if (!fetch_streams_per_node.empty()) {
      rx *= spec.network.incast_efficiency(fetch_streams_per_node[static_cast<std::size_t>(i)]);
    }
    capacities.push_back(rx);
  }
  out.tx_resource.assign(static_cast<std::size_t>(n), -1);
  out.represented.clear();
  for (int s = 0; s < n; ++s) {
    const double tx = spec.workers[static_cast<std::size_t>(s)].nic_bandwidth;
    if (collapse && out.is_p2p_source[static_cast<std::size_t>(s)] == 0) {
      if (std::find(out.represented.begin(), out.represented.end(), tx) !=
          out.represented.end()) {
        continue;
      }
      out.represented.push_back(tx);
    }
    out.tx_resource[static_cast<std::size_t>(s)] = static_cast<int>(capacities.size());
    capacities.push_back(tx);
  }
  const int fabric = static_cast<int>(capacities.size());
  capacities.push_back(spec.network.fabric_bandwidth);

  // Collapsed, a diffuse flow covers the listed transmit ports [n, fabric)
  // with one run; the oracle lists them one by one.
  const double diffuse_weight = 1.0 / static_cast<double>(n);
  std::vector<FlowDemand>& demands = out.demands;
  if (demands.size() < flows.size()) demands.resize(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto& flow = flows[f];
    FlowDemand& d = demands[f];
    d.rate_cap = flow.rate_cap;
    d.uses.clear();
    d.uses.push_back({flow.dst, 1.0});  // receive port
    d.uses.push_back({fabric, 1.0});
    if (flow.src != kInvalidNode) {
      d.uses.push_back({out.tx_resource[static_cast<std::size_t>(flow.src)], 1.0});
    } else if (collapse) {
      d.uses.push_back({n, diffuse_weight, fabric - n});
    } else {
      for (int port = n; port < fabric; ++port) d.uses.push_back({port, diffuse_weight});
    }
  }
  return std::span<const FlowDemand>(demands).first(flows.size());
}

std::vector<double> NetworkModel::allocate(
    std::span<const NetFlow> flows, std::span<const int> fetch_streams_per_node) const {
  if (flows.empty()) return {};
  Problem problem;
  const std::span<const FlowDemand> demands =
      build_problem(flows, fetch_streams_per_node, /*collapse=*/false, problem);
  return max_min_allocate(problem.capacities, demands);
}

namespace {

bool same_flow(const NetFlow& a, const NetFlow& b) {
  return a.dst == b.dst && a.src == b.src && a.rate_cap == b.rate_cap;
}

}  // namespace

const std::vector<double>& NetworkModel::allocate_cached(
    std::span<const NetFlow> flows, std::span<const int> fetch_streams_per_node) {
  if (flows.empty()) return empty_;

  // Raw-input memo: capacities and demands are pure functions of (flows,
  // fetch_streams) for the instance's fixed cluster spec, so bit-equal raw
  // inputs are guaranteed to reproduce a remembered result without
  // rebuilding the problem or running the solver's own input comparison.
  const MemoEntry* hit = memo_.find([&](const MemoEntry& entry) {
    return flows.size() == entry.flows.size() &&
           fetch_streams_per_node.size() == entry.streams.size() &&
           std::equal(flows.begin(), flows.end(), entry.flows.begin(), same_flow) &&
           std::equal(fetch_streams_per_node.begin(), fetch_streams_per_node.end(),
                      entry.streams.begin());
  });
  if (hit != nullptr) {
    ++memo_hits_;
    return hit->rates;
  }

  const std::span<const FlowDemand> demands =
      build_problem(flows, fetch_streams_per_node, /*collapse=*/true, scratch_);
  const std::vector<double>& rates = solver_.solve(scratch_.capacities, demands);
  MemoEntry& entry = memo_.replace();
  entry.flows.assign(flows.begin(), flows.end());
  entry.streams.assign(fetch_streams_per_node.begin(), fetch_streams_per_node.end());
  entry.rates.assign(rates.begin(), rates.end());
  return entry.rates;
}

}  // namespace smr::cluster
