// Cluster-wide network allocation for shuffle traffic and remote map-input
// reads.
//
// Resources: one receive port and one transmit port per node plus the
// switch fabric.  Shuffle fetches are "diffuse" flows — a reduce task pulls
// its partition from every node that holds finished map output — so a
// shuffle flow loads its receiver's port and the fabric with weight 1 and
// the transmit side with weight 1/N per port.  Remote reads are
// point-to-point: receiver, fabric and the sender's transmit port, all
// with weight 1.
//
// The oracle (allocate) lists all N transmit ports on every diffuse flow,
// one use each.  The cached path lists each point-to-point source port,
// plus one representative per distinct capacity among the transmit ports
// no point-to-point flow uses.  Ports of one such class see the same
// `+= 1/N` additions in the same flow order, so the water-fill keeps them
// bitwise equal and saturates them in the same round: the representative
// stands in exactly.  The listed ports are numbered contiguously, so a
// diffuse flow is three uses — receive port, fabric, and one run over all
// listed transmit ports (ResourceUse::count) — and the unlisted ports,
// which would have no users, are left out of the problem.  A diffuse solve
// costs O(flows x distinct ports) contiguous adds instead of O(flows x N)
// scattered ones.  A fetch-cap-bound solve, where no port or fabric can
// bind, costs O(uses) once instead of rounds x (flows x ports): the solver
// returns the caps (maxmin.hpp).  docs/PERF.md §1 has the full argument.
//
// Per-receiver incast: when a node hosts many concurrent fetch streams
// (reducers × parallel copier threads) its receive goodput degrades per
// NetworkSpec::incast_efficiency.  This is the mechanism behind the paper's
// repeated caution that "a large number of reduce slots can cause network
// jam" (Sections III-B3, IV-A2, V-C).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smr/cluster/input_memo.hpp"
#include "smr/cluster/maxmin.hpp"
#include "smr/cluster/node.hpp"
#include "smr/common/types.hpp"

namespace smr::cluster {

struct NetFlow {
  /// Receiving node (must be valid).
  NodeId dst = kInvalidNode;
  /// Sending node, or kInvalidNode for a diffuse flow (pulls uniformly from
  /// all nodes — the shuffle case).
  NodeId src = kInvalidNode;
  /// Per-flow cap in bytes/s (e.g. the receiver's CPU-side ingest bound),
  /// or kNoCap.
  double rate_cap = kNoCap;
};

class NetworkModel {
 public:
  explicit NetworkModel(const ClusterSpec& spec) : spec_(&spec) {}

  /// Allocate rates for `flows`.  `fetch_streams_per_node[d]` is the number
  /// of concurrent TCP fetch streams terminating at node d (drives the
  /// incast penalty on d's receive port); pass an empty span to disable.
  ///
  /// Stateless reference path ("oracle"); allocate_cached() below is
  /// bit-identical and is what the runtime calls every tick.
  std::vector<double> allocate(std::span<const NetFlow> flows,
                               std::span<const int> fetch_streams_per_node) const;

  /// Same result as allocate(), but through the instance's incremental
  /// MaxMinSolver: unchanged flow sets are answered from the cache, and
  /// shuffle ticks where only the (non-binding, backlog-tracking) rate caps
  /// moved while the network stayed the bottleneck skip the water-filling
  /// pass too.  A raw-input memo (input_memo.hpp) short-circuits even
  /// earlier: (flows, fetch_streams) bit-equal to one of the last two
  /// distinct inputs skip the problem build entirely — the steady-shuffle
  /// tick, where every cap is pinned at the fetch cap, and the tick that
  /// returns to the state of two full solves back.
  /// NOT thread-safe; the returned reference is invalidated by the next
  /// call.
  const std::vector<double>& allocate_cached(std::span<const NetFlow> flows,
                                             std::span<const int> fetch_streams_per_node);

  /// Solver counters with raw-input memo hits folded back in as calls +
  /// cache hits (a memo hit is exactly a call the solver would have
  /// answered from its own identical-inputs cache).
  MaxMinSolver::Stats solver_stats() const {
    MaxMinSolver::Stats stats = solver_.stats();
    stats.calls += memo_hits_;
    stats.cache_hits += memo_hits_;
    return stats;
  }

 private:
  /// A built max-min problem plus build scratch; the cached path reuses
  /// one across calls, so a build allocates nothing once warm.
  struct Problem {
    std::vector<double> capacities;
    /// The problem is demands[0, flow count).  Like the solver's scratch
    /// it never shrinks, which is cheap only because a collapsed flow has
    /// at most three uses: with each point-to-point source port as its own
    /// use, the buffers kept past a large tick cost ~7 % peak RSS on a
    /// 256-node cluster (docs/PERF.md §6).
    std::vector<FlowDemand> demands;
    /// is_p2p_source[s]: node s sends a point-to-point flow.
    std::vector<char> is_p2p_source;
    /// tx_resource[s]: node s's transmit-port resource, or -1 if unlisted.
    std::vector<int> tx_resource;
    /// Capacities that already have a representative port.
    std::vector<double> represented;
  };

  /// Build the (capacities, demands) max-min problem (shared by the oracle
  /// and cached paths so the arithmetic is identical) and return its
  /// demands.  `collapse` lists one representative per equivalent
  /// transmit-port class, numbers the listed ports contiguously and gives
  /// each diffuse flow one run over them; otherwise every port is listed
  /// and used one by one.
  std::span<const FlowDemand> build_problem(std::span<const NetFlow> flows,
                                            std::span<const int> fetch_streams_per_node,
                                            bool collapse, Problem& out) const;

  const ClusterSpec* spec_;
  MaxMinSolver solver_;
  Problem scratch_;
  std::vector<double> empty_;
  // Raw-input memo (see allocate_cached).
  struct MemoEntry {
    std::vector<NetFlow> flows;
    std::vector<int> streams;
    std::vector<double> rates;
  };
  InputMemo<MemoEntry> memo_;
  std::uint64_t memo_hits_ = 0;
};

}  // namespace smr::cluster
