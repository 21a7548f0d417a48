#include "smr/cluster/network_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "smr/common/rng.hpp"

namespace smr::cluster {
namespace {

ClusterSpec small_cluster(int nodes = 4) { return ClusterSpec::paper_testbed(nodes); }

TEST(NetworkModel, EmptyFlows) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  EXPECT_TRUE(net.allocate({}, {}).empty());
}

TEST(NetworkModel, SingleDiffuseFlowBoundByReceiverNic) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}};
  const auto rates = net.allocate(flows, {});
  EXPECT_NEAR(rates[0], spec.workers[0].nic_bandwidth, 1.0);
}

TEST(NetworkModel, PerFlowCapRespected) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, 5.0 * static_cast<double>(kMiB)}};
  const auto rates = net.allocate(flows, {});
  EXPECT_DOUBLE_EQ(rates[0], 5.0 * static_cast<double>(kMiB));
}

TEST(NetworkModel, TwoFlowsSameReceiverSharePort) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}, {0, kInvalidNode, kNoCap}};
  const auto rates = net.allocate(flows, {});
  EXPECT_NEAR(rates[0], spec.workers[0].nic_bandwidth / 2.0, 1.0);
  EXPECT_NEAR(rates[1], spec.workers[0].nic_bandwidth / 2.0, 1.0);
}

TEST(NetworkModel, FlowsOnDistinctReceiversIndependent) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}, {1, kInvalidNode, kNoCap}};
  const auto rates = net.allocate(flows, {});
  EXPECT_NEAR(rates[0], spec.workers[0].nic_bandwidth, 1.0);
  EXPECT_NEAR(rates[1], spec.workers[1].nic_bandwidth, 1.0);
}

TEST(NetworkModel, PointToPointLoadsSenderPort) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  // Two point-to-point flows from the same sender to different receivers
  // split the sender's transmit port.
  std::vector<NetFlow> flows{{0, 2, kNoCap}, {1, 2, kNoCap}};
  const auto rates = net.allocate(flows, {});
  EXPECT_NEAR(rates[0], spec.workers[2].nic_bandwidth / 2.0, 1.0);
  EXPECT_NEAR(rates[1], spec.workers[2].nic_bandwidth / 2.0, 1.0);
}

TEST(NetworkModel, FabricCapsAggregate) {
  ClusterSpec spec = small_cluster(4);
  spec.network.fabric_bandwidth = 100.0;  // tiny fabric
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap},
                             {1, kInvalidNode, kNoCap},
                             {2, kInvalidNode, kNoCap}};
  const auto rates = net.allocate(flows, {});
  double total = 0.0;
  for (double r : rates) total += r;
  EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST(NetworkModel, IncastReducesReceiverGoodput) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}};
  std::vector<int> calm{1, 0, 0, 0};
  std::vector<int> jammed{60, 0, 0, 0};
  const double calm_rate = net.allocate(flows, calm)[0];
  const double jam_rate = net.allocate(flows, jammed)[0];
  EXPECT_LT(jam_rate, calm_rate);
  // With the default knee of 12 and 0.08/stream decay, 60 streams lose
  // roughly 4.8x.
  EXPECT_NEAR(jam_rate, calm_rate / (1.0 + 0.08 * (60 - 12)), calm_rate * 0.01);
}

TEST(NetworkModel, IncastBelowKneeIsFree) {
  NetworkSpec net_spec;
  EXPECT_DOUBLE_EQ(net_spec.incast_efficiency(1), 1.0);
  EXPECT_DOUBLE_EQ(net_spec.incast_efficiency(net_spec.incast_knee_streams), 1.0);
  EXPECT_LT(net_spec.incast_efficiency(net_spec.incast_knee_streams + 1), 1.0);
}

TEST(NetworkModel, InvalidDstThrows) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{99, kInvalidNode, kNoCap}};
  EXPECT_THROW(net.allocate(flows, {}), SmrError);
}

TEST(NetworkModel, ManyDiffuseFlowsBoundBySenderAggregate) {
  // 16 receivers each hosting 2 uncapped diffuse flows: the binding
  // constraint is each receiver's port; totals stay within the fabric.
  const auto spec = small_cluster(16);
  NetworkModel net(spec);
  std::vector<NetFlow> flows;
  for (int d = 0; d < 16; ++d) {
    flows.push_back({d, kInvalidNode, kNoCap});
    flows.push_back({d, kInvalidNode, kNoCap});
  }
  const auto rates = net.allocate(flows, {});
  double total = 0.0;
  for (double r : rates) total += r;
  EXPECT_LE(total, spec.network.fabric_bandwidth * (1.0 + 1e-6));
  // Each receiver's two flows split its port.
  EXPECT_NEAR(rates[0], spec.workers[0].nic_bandwidth / 2.0,
              spec.workers[0].nic_bandwidth * 0.05);
}

// Differential suite: allocate_cached() collapses equivalent transmit ports
// on diffuse flows and covers the listed ones with one run, allocate() lists
// every port as its own use.  Over seeded mutation sequences the two must
// agree bit for bit.
class CollapseDifferential {
 public:
  /// `p2p_heavy`: most nodes are point-to-point sources, so the run a
  /// diffuse flow lists is long and interleaves with many weight-1 uses.
  CollapseDifferential(const ClusterSpec& spec, Rng& rng, bool p2p_heavy = false)
      : spec_(&spec), rng_(&rng), net_(spec), p2p_heavy_(p2p_heavy) {
    reshape();
  }

  void check_once() {
    const std::vector<double> expected = net_.allocate(flows_, streams_);
    const std::vector<double>& actual = net_.allocate_cached(flows_, streams_);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "flow " << i;
      ASSERT_EQ(std::signbit(actual[i]), std::signbit(expected[i])) << "flow " << i;
    }
  }

  void mutate() {
    const double which = rng_->uniform();
    if (which < 0.2) return;  // repeat: raw-input memo
    if (which < 0.5 && !flows_.empty()) {
      // Cap moves only: cap-slack fast path or a re-solve.
      for (int k = 0; k < 3; ++k) {
        random_flow().rate_cap = random_cap();
      }
      return;
    }
    if (which < 0.65) {
      random_streams();
      return;
    }
    if (which < 0.8 && !flows_.empty()) {
      // Retarget one flow: changes which ports are point-to-point sources.
      random_flow() = random_net_flow();
      return;
    }
    reshape();
  }

 private:
  int nodes() const { return spec_->worker_count(); }

  NetFlow& random_flow() {
    return flows_[static_cast<std::size_t>(
        rng_->uniform_int(0, static_cast<std::int64_t>(flows_.size()) - 1))];
  }

  double random_cap() {
    const double u = rng_->uniform();
    if (u < 0.4) return kNoCap;
    if (u < 0.5) return 0.0;
    return rng_->uniform(0.1, 200.0) * static_cast<double>(kMiB);
  }

  NetFlow random_net_flow() {
    NetFlow flow;
    flow.dst = static_cast<NodeId>(rng_->uniform_int(0, nodes() - 1));
    if (!sources_.empty() && rng_->uniform() < p2p_share_) {
      flow.src = sources_[static_cast<std::size_t>(
          rng_->uniform_int(0, static_cast<std::int64_t>(sources_.size()) - 1))];
    }
    flow.rate_cap = random_cap();
    return flow;
  }

  void random_streams() {
    streams_.clear();
    if (rng_->uniform() < 0.2) return;  // incast disabled
    for (int d = 0; d < nodes(); ++d) {
      // Up to 5x the default knee, so many receivers run degraded.
      streams_.push_back(static_cast<int>(rng_->uniform_int(0, 60)));
    }
  }

  // New flow set: a random pool of point-to-point sources (from none up to
  // every node), a random point-to-point share, and fresh flows.
  void reshape() {
    if (p2p_heavy_) {
      reshape_p2p_heavy();
      return;
    }
    const int pool = static_cast<int>(rng_->uniform_int(0, nodes()));
    sources_.clear();
    for (int k = 0; k < pool; ++k) {
      sources_.push_back(static_cast<NodeId>(rng_->uniform_int(0, nodes() - 1)));
    }
    if (pool == nodes() && rng_->uniform() < 0.5) {
      // Every node a source.
      sources_.clear();
      for (int s = 0; s < nodes(); ++s) sources_.push_back(s);
    }
    p2p_share_ = rng_->uniform(0.0, 1.0);
    flows_.clear();
    const int count = static_cast<int>(rng_->uniform_int(1, 4 * nodes()));
    for (int f = 0; f < count; ++f) flows_.push_back(random_net_flow());
    random_streams();
  }

  // 70-100 % of the nodes each send one point-to-point flow, interleaved
  // with up to 48 diffuse flows.
  void reshape_p2p_heavy() {
    const double source_share = rng_->uniform(0.7, 1.0);
    sources_.clear();
    for (int s = 0; s < nodes(); ++s) {
      if (rng_->uniform() < source_share) sources_.push_back(s);
    }
    p2p_share_ = 0.9;  // retargeted flows stay mostly point-to-point
    auto flow_from = [&](NodeId src) {
      NetFlow flow = random_net_flow();
      flow.src = src;
      return flow;
    };
    flows_.clear();
    auto diffuse_left = rng_->uniform_int(1, 48);
    for (const NodeId src : sources_) {
      if (diffuse_left > 0 && rng_->uniform() < 0.1) {
        flows_.push_back(flow_from(kInvalidNode));
        --diffuse_left;
      }
      flows_.push_back(flow_from(src));
    }
    for (; diffuse_left > 0; --diffuse_left) flows_.push_back(flow_from(kInvalidNode));
    random_streams();
  }

  const ClusterSpec* spec_;
  Rng* rng_;
  NetworkModel net_;
  bool p2p_heavy_;
  std::vector<NodeId> sources_;
  double p2p_share_ = 0.0;
  std::vector<NetFlow> flows_;
  std::vector<int> streams_;
};

void run_collapse_differential(const ClusterSpec& spec, std::uint64_t seed, int sequences,
                               int steps, bool p2p_heavy = false) {
  Rng rng(seed);
  for (int sequence = 0; sequence < sequences; ++sequence) {
    CollapseDifferential diff(spec, rng, p2p_heavy);
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " + std::to_string(step));
      diff.check_once();
      if (testing::Test::HasFatalFailure()) return;
      diff.mutate();
    }
  }
}

// Two transmit-capacity classes, interleaved so no class is a prefix.
// ClusterSpec::heterogeneous() only slows the CPU, so give its slow nodes a
// slower NIC too.
ClusterSpec two_nic_classes(int fast, int slow) {
  ClusterSpec spec = ClusterSpec::heterogeneous(fast, slow);
  for (int i = fast; i < fast + slow; ++i) {
    spec.workers[static_cast<std::size_t>(i)].nic_bandwidth /= 2.0;
  }
  std::swap(spec.workers[0], spec.workers.back());
  return spec;
}

TEST(NetworkModelCollapse, PaperTestbedMatchesOracleBitwise) {
  run_collapse_differential(ClusterSpec::paper_testbed(16), 0xc011a95eULL, 40, 30);
}

TEST(NetworkModelCollapse, LargerTestbedMatchesOracleBitwise) {
  run_collapse_differential(ClusterSpec::paper_testbed(64), 0x64ULL, 10, 20);
}

TEST(NetworkModelCollapse, TwoTransmitClassesMatchOracleBitwise) {
  run_collapse_differential(two_nic_classes(10, 6), 0x2c1a55ULL, 40, 30);
}

TEST(NetworkModelCollapse, TinyFabricMatchesOracleBitwise) {
  ClusterSpec spec = two_nic_classes(5, 3);
  spec.network.fabric_bandwidth = 100.0;  // the fabric binds first
  run_collapse_differential(spec, 0xfab1cULL, 40, 30);
}

// 1/37 and 1/1000 are inexact, so a run whose resources got their `+= 1/N`
// in another order than the oracle's single uses would differ in the last
// bit (1/256 on the 256-node benchmark cluster is exact and would not).
TEST(NetworkModelCollapse, ThirtySevenNodesMatchOracleBitwise) {
  run_collapse_differential(two_nic_classes(25, 12), 0x37ULL, 30, 30);
}

TEST(NetworkModelCollapse, ThirtySevenNodesMostlyPointToPointSourcesMatchOracleBitwise) {
  run_collapse_differential(two_nic_classes(25, 12), 0x37b10cULL, 30, 30, /*p2p_heavy=*/true);
}

TEST(NetworkModelCollapse, ThousandNodesMostlyPointToPointSourcesMatchOracleBitwise) {
  run_collapse_differential(two_nic_classes(600, 400), 0x1000ULL, 3, 8, /*p2p_heavy=*/true);
}

TEST(NetworkModelCollapse, SingleNodeMatchesOracleBitwise) {
  run_collapse_differential(ClusterSpec::paper_testbed(1), 0x1ULL, 20, 20);
}

TEST(NetworkModelCollapse, DiffuseAndEveryNodeAPointToPointSource) {
  // Edge cases of the port list: no diffuse flow, no point-to-point flow,
  // and every transmit port a point-to-point source (nothing collapses).
  const ClusterSpec spec = two_nic_classes(3, 3);
  NetworkModel net(spec);
  std::vector<std::vector<NetFlow>> cases;
  cases.push_back({{0, kInvalidNode, kNoCap}, {1, kInvalidNode, kNoCap}});
  cases.push_back({{0, 1, kNoCap}, {2, 3, 5.0e6}});
  std::vector<NetFlow> all_sources;
  for (int s = 0; s < spec.worker_count(); ++s) {
    all_sources.push_back({(s + 1) % spec.worker_count(), s, kNoCap});
    all_sources.push_back({s, kInvalidNode, kNoCap});
  }
  cases.push_back(all_sources);
  for (const auto& flows : cases) {
    const std::vector<double> expected = net.allocate(flows, {});
    const std::vector<double>& actual = net.allocate_cached(flows, {});
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(actual[i], expected[i]);
  }
}

TEST(NetworkModelCollapse, InvalidSrcThrowsOnBothPaths) {
  const auto spec = small_cluster();
  NetworkModel net(spec);
  std::vector<NetFlow> flows{{0, kInvalidNode, kNoCap}, {1, 99, kNoCap}};
  EXPECT_THROW(net.allocate(flows, {}), SmrError);
  EXPECT_THROW(net.allocate_cached(flows, {}), SmrError);
}

// Two-entry raw-input memo: a call whose (flows, fetch_streams) equal one
// of the last two distinct inputs is answered from the memo.  The pool's
// inputs have distinct flow counts, so every memo miss is a full solve
// (the solver's own cache needs the same flow structure).
std::vector<std::vector<NetFlow>> memo_pool() {
  const double mib = static_cast<double>(kMiB);
  return {
      {{0, kInvalidNode, kNoCap}, {1, kInvalidNode, 40.0 * mib}, {2, 5, kNoCap}},
      {{3, kInvalidNode, kNoCap}, {3, kInvalidNode, 9.0 * mib}, {4, 0, 70.0 * mib},
       {5, kInvalidNode, kNoCap}, {6, 1, kNoCap}},
      {{7, kInvalidNode, 25.0 * mib}, {0, 7, kNoCap}, {1, kInvalidNode, kNoCap},
       {2, kInvalidNode, kNoCap}},
      {{4, kInvalidNode, kNoCap}, {5, kInvalidNode, kNoCap}},
  };
}

// Replays `sequence` (indices into memo_pool()) through allocate_cached,
// checking every answer bitwise against the allocate() oracle, and returns
// how many inputs were absent from the last two distinct inputs.
std::uint64_t replay_memo_sequence(NetworkModel& net, const std::vector<int>& sequence) {
  const auto pool = memo_pool();
  std::vector<int> window;  // last two distinct inputs, most recent first
  std::uint64_t misses = 0;
  for (const int k : sequence) {
    const auto& flows = pool[static_cast<std::size_t>(k)];
    const std::vector<double>& actual = net.allocate_cached(flows, {});
    const std::vector<double> expected = net.allocate(flows, {});
    EXPECT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size() && i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "input " << k << " flow " << i;
      EXPECT_EQ(std::signbit(actual[i]), std::signbit(expected[i]));
    }
    const auto at = std::find(window.begin(), window.end(), k);
    if (at == window.end()) {
      ++misses;
    } else {
      window.erase(at);
    }
    window.insert(window.begin(), k);
    if (window.size() > 2) window.pop_back();
  }
  return misses;
}

TEST(NetworkModelMemo, ABABCAMatchesOracleAndSolvesOnlyOutsideTheWindow) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(8);
  NetworkModel net(spec);
  const std::vector<int> sequence = {0, 1, 0, 1, 2, 0};
  const std::uint64_t misses = replay_memo_sequence(net, sequence);
  EXPECT_EQ(misses, 4u);  // A, B, C, and A again once C evicted it
  const MaxMinSolver::Stats stats = net.solver_stats();
  EXPECT_EQ(stats.calls, sequence.size());
  EXPECT_EQ(stats.full_solves, misses);
  EXPECT_EQ(stats.cache_hits, sequence.size() - misses);
}

TEST(NetworkModelMemo, RandomSequencesSolveOnlyOutsideTheWindow) {
  const ClusterSpec spec = two_nic_classes(5, 3);
  Rng rng(0x3e3011ULL);
  for (int run = 0; run < 20; ++run) {
    NetworkModel net(spec);
    std::vector<int> sequence;
    for (int step = 0; step < 60; ++step) {
      sequence.push_back(static_cast<int>(rng.uniform_int(0, 3)));
    }
    const std::uint64_t misses = replay_memo_sequence(net, sequence);
    EXPECT_EQ(net.solver_stats().full_solves, misses) << "run " << run;
    EXPECT_EQ(net.solver_stats().calls, sequence.size());
  }
}

TEST(NetworkModelMemo, ReturnedReferenceStaysValidUntilTheNextCall) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(8);
  NetworkModel net(spec);
  const auto pool = memo_pool();
  net.allocate_cached(pool[0], {});
  net.allocate_cached(pool[1], {});
  // A hit on the older entry: the reference points into the memo.
  const std::vector<double>& rates = net.allocate_cached(pool[0], {});
  const std::vector<double> expected = net.allocate(pool[0], {});  // oracle: no memo
  ASSERT_EQ(rates.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(rates[i], expected[i]);
  // A miss refills the least recently used entry; its answer is the new one.
  const std::vector<double>& fresh = net.allocate_cached(pool[2], {});
  EXPECT_EQ(fresh, net.allocate(pool[2], {}));
}

}  // namespace
}  // namespace smr::cluster
