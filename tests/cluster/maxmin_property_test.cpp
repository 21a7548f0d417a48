// Property tests for the max-min allocator, and a differential suite that
// drives MaxMinSolver through randomized mutation sequences checking every
// answer bit-for-bit against the max_min_allocate oracle.
//
// Properties checked on random instances:
//   * feasibility: no resource over capacity, no flow over its cap,
//     no negative rate;
//   * max-min fairness: every flow is either at its cap or uses at least
//     one saturated resource (otherwise its rate could be raised, which
//     contradicts max-min optimality);
//   * the solver's fast paths (exact-repeat and cap-slack) and its sparse
//     freeze pass never diverge from a fresh oracle solve — not even in
//     the last bit;
//   * block uses (runs of resources) solve bitwise like the same problem
//     with every run expanded to single uses, on both paths;
//   * the feasible-cap short-circuit (every flow at its cap, no resource
//     binding) answers exactly what the water-fill would, on the solver
//     and through the network and compute models.
#include "smr/cluster/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "smr/cluster/compute_model.hpp"
#include "smr/cluster/network_model.hpp"
#include "smr/common/rng.hpp"

namespace smr::cluster {
namespace {

// Mirrors the allocator's internal saturation threshold: resource r counts
// as saturated when less than kEps * (1 + capacity) remains.
constexpr double kEps = 1e-9;

struct Problem {
  std::vector<double> capacities;
  std::vector<FlowDemand> flows;
};

bool bounded_by_use(const FlowDemand& flow) {
  for (const ResourceUse& use : flow.uses) {
    if (use.weight > 0.0) return true;
  }
  return false;
}

Problem random_problem(Rng& rng) {
  Problem p;
  const int resources = static_cast<int>(rng.uniform_int(1, 6));
  const int flows = static_cast<int>(rng.uniform_int(0, 12));
  p.capacities.resize(static_cast<std::size_t>(resources));
  for (double& c : p.capacities) {
    // ~10% zero-capacity resources to exercise the freeze-at-zero edge.
    c = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.1, 1000.0);
  }
  p.flows.resize(static_cast<std::size_t>(flows));
  for (FlowDemand& flow : p.flows) {
    // ~15% capped flows, ~10% use-less (cap-only) flows.
    flow.rate_cap = rng.uniform() < 0.15 ? rng.uniform(0.0, 200.0) : kNoCap;
    const int uses = rng.uniform() < 0.1 ? 0 : static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < uses; ++u) {
      ResourceUse use;
      use.resource = static_cast<int>(rng.uniform_int(0, resources - 1));
      use.weight = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.01, 4.0);
      flow.uses.push_back(use);
    }
    // The allocator requires every flow bounded: a cap, or at least one
    // positive-weight use.  Cap the unbounded ones.
    if (flow.rate_cap == kNoCap && !bounded_by_use(flow)) {
      flow.rate_cap = rng.uniform(0.0, 200.0);
    }
  }
  return p;
}

void check_feasible_and_maxmin(const Problem& p, const std::vector<double>& rates) {
  ASSERT_EQ(rates.size(), p.flows.size());
  std::vector<double> used(p.capacities.size(), 0.0);
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    ASSERT_GE(rates[i], 0.0);
    if (p.flows[i].rate_cap != kNoCap) {
      ASSERT_LE(rates[i], p.flows[i].rate_cap * (1.0 + 1e-12) + 1e-12);
    }
    for (const ResourceUse& use : p.flows[i].uses) {
      used[static_cast<std::size_t>(use.resource)] += rates[i] * use.weight;
    }
  }
  // Conservation: consumption never exceeds capacity (beyond fp slop
  // proportional to the number of additions).
  for (std::size_t r = 0; r < p.capacities.size(); ++r) {
    ASSERT_LE(used[r], p.capacities[r] + 1e-6 * (1.0 + p.capacities[r]))
        << "resource " << r << " over capacity";
  }
  // Max-min: a flow below its cap must touch a saturated resource, or have
  // no positive-weight use at all and no cap (the unbounded-degenerate
  // case, where the allocator freezes everything at 0).
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    const double cap = p.flows[i].rate_cap;
    if (cap != kNoCap && rates[i] >= cap - kEps * (1.0 + cap)) continue;
    bool has_weighted_use = false;
    bool touches_saturated = false;
    for (const ResourceUse& use : p.flows[i].uses) {
      if (use.weight <= 0.0) continue;
      has_weighted_use = true;
      const auto r = static_cast<std::size_t>(use.resource);
      if (p.capacities[r] - used[r] <= 1e-6 * (1.0 + p.capacities[r])) {
        touches_saturated = true;
      }
    }
    if (has_weighted_use) {
      ASSERT_TRUE(touches_saturated)
          << "flow " << i << " is below its cap (" << rates[i]
          << ") but uses no saturated resource — rate could be raised";
    }
  }
}

TEST(MaxMinProperty, RandomInstancesAreFeasibleAndMaxMin) {
  Rng rng(0xfeedULL);
  for (int trial = 0; trial < 1000; ++trial) {
    const Problem p = random_problem(rng);
    const auto rates = max_min_allocate(p.capacities, p.flows);
    SCOPED_TRACE("trial " + std::to_string(trial));
    check_feasible_and_maxmin(p, rates);
  }
}

TEST(MaxMinProperty, ZeroCapacityFreezesUsersAtZero) {
  const std::vector<double> caps{0.0, 100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}, {1, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{1, 1.0}};
  const auto rates = max_min_allocate(caps, flows);
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

TEST(MaxMinProperty, EmptyUsesWithCapStopsAtCap) {
  const std::vector<double> caps{50.0};
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = 7.5;
  const auto rates = max_min_allocate(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 7.5);
}

TEST(MaxMinProperty, ZeroWeightUseDoesNotConsume) {
  const std::vector<double> caps{10.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 3.0;
  flows[0].uses = {{0, 0.0}};  // weightless: only the cap binds
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  const auto rates = max_min_allocate(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

// Differential harness: every solve() answer must equal a fresh oracle run
// bit-for-bit, across mutation patterns chosen to hit all three solver
// paths (exact repeat, cap-slack fast path, full re-solve).
class SolverDifferential {
 public:
  explicit SolverDifferential(Rng& rng) : rng_(&rng), problem_(random_problem(rng)) {}

  void check_once() {
    const std::vector<double> expected =
        max_min_allocate(problem_.capacities, problem_.flows);
    const std::vector<double>& actual =
        solver_.solve(problem_.capacities, problem_.flows);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      // Bitwise comparison: 0.0 == -0.0 would pass EXPECT_EQ, so compare
      // through memcmp-equivalent double equality + signbit.
      ASSERT_EQ(actual[i], expected[i]) << "flow " << i;
      ASSERT_EQ(std::signbit(actual[i]), std::signbit(expected[i])) << "flow " << i;
    }
  }

  void mutate() {
    const double which = rng_->uniform();
    if (which < 0.25) {
      // Repeat unchanged (exact cache hit path).
      return;
    }
    if (which < 0.55 && !problem_.flows.empty()) {
      // Move a random flow's cap only — sometimes slack, sometimes binding.
      // Dropping the cap entirely is only legal when a use bounds the flow.
      FlowDemand& flow =
          problem_.flows[static_cast<std::size_t>(rng_->uniform_int(
              0, static_cast<std::int64_t>(problem_.flows.size()) - 1))];
      flow.rate_cap = rng_->uniform() < 0.3 && bounded_by_use(flow)
                          ? kNoCap
                          : rng_->uniform(0.0, 400.0);
      return;
    }
    if (which < 0.75 && !problem_.capacities.empty()) {
      // Nudge a capacity (always a full re-solve).
      problem_.capacities[static_cast<std::size_t>(rng_->uniform_int(
          0, static_cast<std::int64_t>(problem_.capacities.size()) - 1))] =
          rng_->uniform(0.0, 1000.0);
      return;
    }
    // Fresh problem (shape change).
    problem_ = random_problem(*rng_);
  }

  const MaxMinSolver::Stats& stats() const { return solver_.stats(); }

 private:
  Rng* rng_;
  Problem problem_;
  MaxMinSolver solver_;
};

TEST(MaxMinSolverDifferential, RandomMutationSequencesMatchOracleBitwise) {
  Rng rng(0xa110cULL);
  int total_checks = 0;
  for (int sequence = 0; sequence < 50; ++sequence) {
    SolverDifferential diff(rng);
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sequence) + " step " +
                   std::to_string(step));
      diff.check_once();
      ++total_checks;
      diff.mutate();
    }
    // Every path should be reachable across the suite; assert per-sequence
    // only that the counters are consistent.
    const auto& stats = diff.stats();
    EXPECT_EQ(stats.calls, stats.cache_hits + stats.cap_fast_hits + stats.full_solves);
  }
  EXPECT_GE(total_checks, 2000);
}

// The solver's freeze pass only looks at flows that use a resource which
// emptied this round (a resource -> user index).  These instances are built
// to stress that: capacities from a small set so several resources saturate
// in the same round, zero and below-threshold capacities that are empty
// before the first round, zero-weight uses of saturating resources (which must not
// freeze the flow), and repeated uses of one resource within a flow.
Problem tied_problem(Rng& rng) {
  Problem p;
  const int resources = static_cast<int>(rng.uniform_int(1, 8));
  const int flows = static_cast<int>(rng.uniform_int(0, 16));
  const double capacity_set[] = {0.0, 1e-12, 50.0, 100.0, 100.0, 300.0};
  for (int r = 0; r < resources; ++r) {
    p.capacities.push_back(capacity_set[rng.uniform_int(0, 5)]);
  }
  const double weight_set[] = {0.0, 0.5, 1.0, 1.0, 2.0};
  p.flows.resize(static_cast<std::size_t>(flows));
  for (FlowDemand& flow : p.flows) {
    flow.rate_cap = rng.uniform() < 0.2 ? capacity_set[rng.uniform_int(0, 5)] / 4.0 : kNoCap;
    const int uses = static_cast<int>(rng.uniform_int(0, 4));
    for (int u = 0; u < uses; ++u) {
      flow.uses.push_back({static_cast<int>(rng.uniform_int(0, resources - 1)),
                           weight_set[rng.uniform_int(0, 4)]});
    }
    if (flow.rate_cap == kNoCap && !bounded_by_use(flow)) flow.rate_cap = 25.0;
  }
  return p;
}

void expect_bitwise(const std::vector<double>& actual, const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "flow " << i;
    ASSERT_EQ(std::signbit(actual[i]), std::signbit(expected[i])) << "flow " << i;
  }
}

TEST(MaxMinSolverSparseFreeze, TiedSaturationsMatchOracleBitwise) {
  Rng rng(0x5a7ULL);
  MaxMinSolver reused;  // scratch (incl. the user index) carried across shapes
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Problem p = tied_problem(rng);
    const std::vector<double> expected = max_min_allocate(p.capacities, p.flows);
    MaxMinSolver fresh;
    expect_bitwise(fresh.solve(p.capacities, p.flows), expected);
    expect_bitwise(reused.solve(p.capacities, p.flows), expected);
    if (HasFatalFailure()) return;
  }
}

TEST(MaxMinSolverSparseFreeze, ResourceEmptyAtStartFreezesOnlyWeightedUsers) {
  // Resource 0 is below the saturation threshold but not zero: its users
  // must be frozen before the first round, not after a tiny first delta.
  const std::vector<double> caps{1e-12, 100.0};
  std::vector<FlowDemand> flows(3);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}, {1, 1.0}};  // dead from the start
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 0.0}, {1, 1.0}};  // weightless on the empty resource
  flows[2].rate_cap = kNoCap;
  flows[2].uses = {{1, 1.0}};
  MaxMinSolver solver;
  const std::vector<double> rates = solver.solve(caps, flows);
  expect_bitwise(rates, max_min_allocate(caps, flows));
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
}

TEST(MaxMinSolverSparseFreeze, SeveralResourcesSaturateInOneRound) {
  // Resources 0 and 1 saturate together in round one; resource 2 is only
  // touched by zero-weight uses and by flow 3, which keeps rising.
  const std::vector<double> caps{100.0, 100.0, 1000.0};
  std::vector<FlowDemand> flows(4);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}, {2, 0.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{1, 1.0}, {2, 0.0}};
  flows[2].rate_cap = kNoCap;
  flows[2].uses = {{0, 1.0}, {1, 1.0}};
  flows[3].rate_cap = kNoCap;
  flows[3].uses = {{2, 1.0}, {2, 1.0}};  // the same resource twice
  MaxMinSolver solver;
  const std::vector<double> rates = solver.solve(caps, flows);
  expect_bitwise(rates, max_min_allocate(caps, flows));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
  EXPECT_DOUBLE_EQ(rates[3], 500.0);
}

// Block uses: a use covering [resource, resource + count) must solve
// bitwise like the same problem with the run expanded to `count` single
// uses, on the oracle and on the solver.
std::vector<FlowDemand> expand_runs(const std::vector<FlowDemand>& flows) {
  std::vector<FlowDemand> expanded(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    expanded[i].rate_cap = flows[i].rate_cap;
    for (const ResourceUse& use : flows[i].uses) {
      for (int k = 0; k < use.count; ++k) {
        expanded[i].uses.push_back({use.resource + k, use.weight});
      }
    }
  }
  return expanded;
}

// Runs mixed with single uses: zero-weight runs, single uses inside a run
// of the same flow, resources empty at the start, capacities from a small
// set (ties) and weights 1/n for non-power-of-two n, whose sums round.
Problem run_problem(Rng& rng) {
  Problem p;
  const int resources = static_cast<int>(rng.uniform_int(1, 12));
  const int flows = static_cast<int>(rng.uniform_int(0, 16));
  const double capacity_set[] = {0.0, 1e-12, 100.0, 100.0, 300.0};
  for (int r = 0; r < resources; ++r) {
    p.capacities.push_back(rng.uniform() < 0.5 ? capacity_set[rng.uniform_int(0, 4)]
                                               : rng.uniform(0.1, 1000.0));
  }
  const double divisors[] = {3.0, 7.0, 37.0, 1000.0};
  const double inverse = 1.0 / divisors[rng.uniform_int(0, 3)];
  auto weight = [&] {
    const double u = rng.uniform();
    if (u < 0.1) return 0.0;
    if (u < 0.6) return inverse;
    if (u < 0.8) return 1.0;
    return rng.uniform(0.01, 4.0);
  };
  p.flows.resize(static_cast<std::size_t>(flows));
  for (FlowDemand& flow : p.flows) {
    flow.rate_cap = rng.uniform() < 0.2 ? rng.uniform(0.0, 200.0) : kNoCap;
    const int uses = static_cast<int>(rng.uniform_int(0, 4));
    for (int u = 0; u < uses; ++u) {
      const int first = static_cast<int>(rng.uniform_int(0, resources - 1));
      if (rng.uniform() < 0.5) {
        flow.uses.push_back({first, weight()});
        continue;
      }
      const int count = static_cast<int>(rng.uniform_int(1, resources - first));
      flow.uses.push_back({first, weight(), count});
      if (rng.uniform() < 0.4) {
        // A single use of a resource the run covers.
        flow.uses.push_back({first + static_cast<int>(rng.uniform_int(0, count - 1)), weight()});
      }
    }
    if (flow.rate_cap == kNoCap && !bounded_by_use(flow)) flow.rate_cap = 25.0;
  }
  return p;
}

TEST(MaxMinBlockUses, RandomRunsMatchExpandedUsesBitwise) {
  Rng rng(0xb10cULL);
  MaxMinSolver reused;
  int runs = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Problem p = run_problem(rng);
    for (const FlowDemand& flow : p.flows) {
      for (const ResourceUse& use : flow.uses) runs += use.count > 1 ? 1 : 0;
    }
    const Problem expanded{p.capacities, expand_runs(p.flows)};
    const std::vector<double> expected = max_min_allocate(expanded.capacities, expanded.flows);
    check_feasible_and_maxmin(expanded, expected);
    expect_bitwise(max_min_allocate(p.capacities, p.flows), expected);
    MaxMinSolver fresh;
    expect_bitwise(fresh.solve(p.capacities, p.flows), expected);
    expect_bitwise(reused.solve(p.capacities, p.flows), expected);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(runs, 3000);
}

TEST(MaxMinBlockUses, RunLengthChangeForcesResolve) {
  const std::vector<double> caps{90.0, 30.0, 60.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0, 2}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  MaxMinSolver solver;
  expect_bitwise(solver.solve(caps, flows), max_min_allocate(caps, expand_runs(flows)));
  EXPECT_DOUBLE_EQ(solver.solve(caps, flows)[0], 30.0);  // resource 1 binds
  flows[0].uses[0].count = 3;  // same start and weight, one more resource
  const std::vector<double> rates = solver.solve(caps, flows);
  expect_bitwise(rates, max_min_allocate(caps, expand_runs(flows)));
  EXPECT_EQ(solver.stats().full_solves, 2u);
  EXPECT_EQ(solver.stats().cache_hits, 1u);
}

TEST(MaxMinBlockUses, BadRunsThrowOnBothPaths) {
  const std::vector<double> caps{10.0, 10.0, 10.0};
  const std::vector<ResourceUse> bad = {
      {0, 1.0, 0},   // empty run
      {1, 1.0, -1},  // negative length
      {1, 1.0, 3},   // ends one past the last resource
      {2, 0.0, 2},   // past the end even at zero weight
      {-1, 1.0, 2},  // starts before the first resource
      {0, 1.0, std::numeric_limits<int>::max()},
  };
  for (const ResourceUse& use : bad) {
    SCOPED_TRACE("run [" + std::to_string(use.resource) + ", +" + std::to_string(use.count) +
                 ")");
    std::vector<FlowDemand> flows(2);
    flows[0].rate_cap = kNoCap;
    flows[0].uses = {{0, 1.0}};
    flows[1].rate_cap = 5.0;
    flows[1].uses = {use};
    EXPECT_THROW(max_min_allocate(caps, flows), SmrError);
    MaxMinSolver solver;
    EXPECT_THROW(solver.solve(caps, flows), SmrError);
  }
}

// Feasible caps: when every flow has a finite cap > 0 and charging every
// flow its cap leaves each resource with a positive-weight user a margin
// (U_r * (1 + 1e-6) < C_r - 2 * kEps * (C_r + 1)), the solver returns the
// caps without a water-fill and counts Stats::cap_feasible_solves.  The
// random problems scale the caps so the tightest resource's charge lands
// at 0.9-1.1x its capacity (a third of them exactly at it), with runs,
// weightless uses, cap-only flows, empty resources and caps a few
// kEps apart, so both sides of the margin are taken.
Problem feasible_caps_problem(Rng& rng) {
  Problem p;
  const int resources = static_cast<int>(rng.uniform_int(1, 8));
  const int flows = static_cast<int>(rng.uniform_int(1, 16));
  const double capacity_set[] = {0.0, 1e-12, 100.0, 100.0, 300.0};
  for (int r = 0; r < resources; ++r) {
    const double u = rng.uniform();
    p.capacities.push_back(u < 0.1   ? capacity_set[rng.uniform_int(0, 1)]
                           : u < 0.5 ? capacity_set[rng.uniform_int(2, 4)]
                                     : rng.uniform(0.1, 1000.0));
  }
  const double inverse = 1.0 / static_cast<double>(rng.uniform_int(3, 40));
  auto weight = [&] {
    const double u = rng.uniform();
    if (u < 0.1) return 0.0;
    if (u < 0.5) return inverse;
    if (u < 0.7) return 1.0;
    return rng.uniform(0.01, 4.0);
  };
  const double cap_set[] = {1.0, 2.0, 2.0, 5.0};
  p.flows.resize(static_cast<std::size_t>(flows));
  for (FlowDemand& flow : p.flows) {
    flow.rate_cap = rng.uniform() < 0.4 ? cap_set[rng.uniform_int(0, 3)] : rng.uniform(0.1, 5.0);
    const int uses = rng.uniform() < 0.1 ? 0 : static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < uses; ++u) {
      const int first = static_cast<int>(rng.uniform_int(0, resources - 1));
      const int count =
          rng.uniform() < 0.5 ? 1 : static_cast<int>(rng.uniform_int(1, resources - first));
      flow.uses.push_back({first, weight(), count});
    }
  }
  if (flows > 1 && rng.uniform() < 0.3) {
    // Two caps 2.5 kEps apart: if their shared resource runs out between
    // them, the upper flow freezes below its cap.
    p.flows[1].rate_cap = p.flows[0].rate_cap * (1.0 + 2.5 * kEps);
  }
  // Scale every cap so the tightest non-empty resource's charge is
  // `target` times its capacity.
  std::vector<double> charge(p.capacities.size(), 0.0);
  for (const FlowDemand& flow : p.flows) {
    for (const ResourceUse& use : flow.uses) {
      for (int k = 0; k < use.count; ++k) {
        charge[static_cast<std::size_t>(use.resource + k)] += use.weight * flow.rate_cap;
      }
    }
  }
  double tightest = 0.0;
  for (std::size_t r = 0; r < charge.size(); ++r) {
    if (p.capacities[r] >= 1.0) tightest = std::max(tightest, charge[r] / p.capacities[r]);
  }
  if (tightest > 0.0) {
    const double target = rng.uniform() < 0.3 ? 1.0 : rng.uniform(0.9, 1.1);
    for (FlowDemand& flow : p.flows) flow.rate_cap *= target / tightest;
  }
  return p;
}

TEST(MaxMinFeasibleCaps, RandomCappedProblemsMatchOracleBitwise) {
  Rng rng(0xfea51b1eULL);
  MaxMinSolver reused;
  for (int trial = 0; trial < 4000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Problem p = feasible_caps_problem(rng);
    const std::vector<double> expected = max_min_allocate(p.capacities, p.flows);
    MaxMinSolver fresh;
    expect_bitwise(fresh.solve(p.capacities, p.flows), expected);
    expect_bitwise(reused.solve(p.capacities, p.flows), expected);
    // A cap move on the same problem: the cap fast path must not trust a
    // flow the short-circuit left at its cap.
    FlowDemand& moved = p.flows[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.flows.size()) - 1))];
    moved.rate_cap *= rng.uniform(0.5, 1.5);
    expect_bitwise(reused.solve(p.capacities, p.flows), max_min_allocate(p.capacities, p.flows));
    if (HasFatalFailure()) return;
  }
  const MaxMinSolver::Stats& stats = reused.stats();
  EXPECT_EQ(stats.calls, stats.cache_hits + stats.cap_fast_hits + stats.full_solves);
  // Both sides of the margin are taken often.
  EXPECT_GE(stats.cap_feasible_solves, 1000u);
  EXPECT_GE(stats.full_solves - stats.cap_feasible_solves, 1000u);
}

// Solve on a fresh solver, compare with the oracle bitwise and report
// whether the short-circuit answered.
bool solve_feasible_check(const std::vector<double>& capacities,
                          const std::vector<FlowDemand>& flows) {
  MaxMinSolver solver;
  expect_bitwise(solver.solve(capacities, flows), max_min_allocate(capacities, flows));
  EXPECT_EQ(solver.stats().full_solves, 1u);
  return solver.stats().cap_feasible_solves == 1;
}

TEST(MaxMinFeasibleCaps, FeasibleCapsAreTheAnswer) {
  const std::vector<double> caps{100.0, 60.0};
  std::vector<FlowDemand> flows(3);
  flows[0].rate_cap = 30.0;
  flows[0].uses = {{0, 1.0}, {1, 0.5}};
  flows[1].rate_cap = 7.0;  // cap only
  flows[2].rate_cap = 40.0;
  flows[2].uses = {{0, 1.0, 2}};
  MaxMinSolver solver;
  const std::vector<double> rates = solver.solve(caps, flows);
  EXPECT_EQ(rates, (std::vector<double>{30.0, 7.0, 40.0}));
  EXPECT_EQ(solver.stats().cap_feasible_solves, 1u);
}

TEST(MaxMinFeasibleCaps, EmptyResourceWithUnderflowingChargeBinds) {
  // Resource 0 has no capacity; its only positive-weight user's charge
  // 1e-200 * 1e-200 underflows to 0, so the charges alone would call it
  // unused.  The oracle freezes the flow at 0.
  const std::vector<double> caps{0.0, 100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 1e-200;
  flows[0].uses = {{0, 1e-200}, {1, 1.0}};
  flows[1].rate_cap = 5.0;
  flows[1].uses = {{1, 1.0}};
  EXPECT_FALSE(solve_feasible_check(caps, flows));
  EXPECT_EQ(max_min_allocate(caps, flows)[0], 0.0);
  // A weightless use of the empty resource does not bind.
  flows[0].uses[0].weight = 0.0;
  EXPECT_TRUE(solve_feasible_check(caps, flows));
}

TEST(MaxMinFeasibleCaps, EmptyAndInfiniteCapacitiesFallBack) {
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = 5.0;
  flows[0].uses = {{0, 1.0}};
  // Below the saturation threshold from the start.
  EXPECT_FALSE(solve_feasible_check({1e-12}, flows));
  EXPECT_FALSE(solve_feasible_check({0.0}, flows));
  // An infinite capacity is at its own threshold (inf <= kEps * inf): the
  // oracle freezes its users at 0.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(solve_feasible_check({inf}, flows));
  EXPECT_EQ(max_min_allocate(std::vector<double>{inf}, flows)[0], 0.0);
}

TEST(MaxMinFeasibleCaps, UncappedOrBadCapsFallBack) {
  const std::vector<double> caps{100.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {kNoCap, 0.0, -0.0, -3.0, nan}) {
    SCOPED_TRACE("cap " + std::to_string(bad));
    std::vector<FlowDemand> flows(2);
    flows[0].rate_cap = bad;
    flows[0].uses = {{0, 1.0}};
    flows[1].rate_cap = 10.0;
    flows[1].uses = {{0, 1.0}};
    EXPECT_FALSE(solve_feasible_check(caps, flows));
  }
  // An infinite cap on a flow no resource bounds: unbounded on both paths.
  std::vector<FlowDemand> unbounded(1);
  unbounded[0].rate_cap = std::numeric_limits<double>::infinity();
  EXPECT_THROW(max_min_allocate(caps, unbounded), SmrError);
  MaxMinSolver solver;
  EXPECT_THROW(solver.solve(caps, unbounded), SmrError);
}

TEST(MaxMinFeasibleCaps, OverflowingWeightSumFallsBack) {
  // Charges 1e298 fit 1e300 of capacity, but the water-fill's weight sum
  // 2e308 overflows, which the oracle ends in its degenerate branch.
  const std::vector<double> caps{1e300};
  std::vector<FlowDemand> flows(2);
  for (FlowDemand& flow : flows) {
    flow.rate_cap = 1e-10;
    flow.uses = {{0, 1e308}};
  }
  EXPECT_FALSE(solve_feasible_check(caps, flows));
}

TEST(MaxMinFeasibleCaps, ChargeAtCapacityBindsTheUpperCap) {
  // Charges sum to the capacity exactly, yet the resource empties (below
  // kEps * (C + 1)) once both flows reach 1.0, 2.5 kEps short of the upper
  // cap: the water-fill freezes it there, not at its cap.
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 1.0;
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = 1.0 + 2.5 * kEps;
  flows[1].uses = {{0, 1.0}};
  const std::vector<double> caps{flows[0].rate_cap + flows[1].rate_cap};
  EXPECT_FALSE(solve_feasible_check(caps, flows));
  EXPECT_EQ(max_min_allocate(caps, flows)[1], 1.0);
}

TEST(MaxMinFeasibleCaps, ChargeAtTheMarginDecidesThePath) {
  // One flow of weight 1 whose cap walks across the margin ulp by ulp.
  const double capacity = 1000.0;
  const double limit = capacity - 2.0 * (kEps * (capacity + 1.0));
  double cap = limit / (1.0 + 1e-6);
  for (int k = 0; k < 4; ++k) cap = std::nextafter(cap, 0.0);
  int taken = 0;
  for (int step = 0; step < 8; ++step, cap = std::nextafter(cap, capacity)) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<FlowDemand> flows(1);
    flows[0].rate_cap = cap;
    flows[0].uses = {{0, 1.0}};
    const bool feasible = cap * (1.0 + 1e-6) < limit;
    EXPECT_EQ(solve_feasible_check({capacity}, flows), feasible);
    taken += feasible ? 1 : 0;
  }
  EXPECT_GT(taken, 0);
  EXPECT_LT(taken, 8);
}

TEST(MaxMinFeasibleCaps, CapRaiseAfterShortCircuitResolves) {
  // The short-circuit leaves every flow frozen by its cap, so a cap moving
  // up re-solves instead of taking the cap fast path.
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 10.0;
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = 20.0;
  flows[1].uses = {{0, 1.0}};
  MaxMinSolver solver;
  solver.solve(caps, flows);
  flows[0].rate_cap = 30.0;
  const std::vector<double> rates = solver.solve(caps, flows);
  expect_bitwise(rates, max_min_allocate(caps, flows));
  EXPECT_EQ(rates[0], 30.0);
  EXPECT_EQ(solver.stats().cap_fast_hits, 0u);
  EXPECT_EQ(solver.stats().full_solves, 2u);
  EXPECT_EQ(solver.stats().cap_feasible_solves, 2u);
}

// Shuffle-shaped network problems: diffuse fetches capped at
// min(backlog / dt, fetch_cap), as the runtime builds them, plus a few
// remote reads.  Up to 16 fetches per receiver, so a receive port binds in
// some ticks and not in others.
TEST(MaxMinFeasibleCaps, FetchCapBoundNetworkMatchesOracleBitwise) {
  const ClusterSpec spec = ClusterSpec::paper_testbed(37);
  const double fetch_cap = 12.0 * static_cast<double>(kMiB);
  const double dt = 0.25;
  Rng rng(0x5eedfe7cULL);
  NetworkModel net(spec);
  std::vector<NetFlow> flows;
  std::vector<int> streams;
  for (int step = 0; step < 200; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step % 20 == 0) {
      flows.clear();
      const auto per_node = rng.uniform_int(1, 16);
      for (int d = 0; d < spec.worker_count(); ++d) {
        for (std::int64_t k = rng.uniform_int(0, per_node); k > 0; --k) {
          NetFlow flow;
          flow.dst = static_cast<NodeId>(d);
          if (rng.uniform() < 0.05) {
            flow.src = static_cast<NodeId>(rng.uniform_int(0, spec.worker_count() - 1));
          }
          flows.push_back(flow);
        }
      }
      streams.clear();
      if (rng.uniform() < 0.5) {
        for (int d = 0; d < spec.worker_count(); ++d) {
          streams.push_back(static_cast<int>(rng.uniform_int(0, 40)));
        }
      }
      if (flows.empty()) continue;
    }
    for (NetFlow& flow : flows) {
      const double mib = static_cast<double>(kMiB);
      const double backlog = rng.uniform() < 0.7 ? 1e9 : rng.uniform(0.0, 4.0 * mib);
      flow.rate_cap = std::min(backlog / dt, fetch_cap);
    }
    expect_bitwise(net.allocate_cached(flows, streams), net.allocate(flows, streams));
    if (HasFatalFailure()) return;
  }
  const MaxMinSolver::Stats stats = net.solver_stats();
  EXPECT_GE(stats.cap_feasible_solves, 25u);
  EXPECT_GE(stats.full_solves - stats.cap_feasible_solves, 25u);
}

TEST(MaxMinFeasibleCaps, ComputeModelMatchesOracleBitwise) {
  const NodeSpec node;
  Rng rng(0xc0feULL);
  ComputeModel model;
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<PhaseLoad> loads(static_cast<std::size_t>(rng.uniform_int(1, 12)));
    for (PhaseLoad& load : loads) {
      load.cpu_per_byte = rng.uniform(0.05, 0.6) / static_cast<double>(kMiB);
      load.disk_per_byte = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.1, 2.5);
      load.rate_cap =
          rng.uniform() < 0.5 ? kNoCap : rng.uniform(0.5, 12.0) * static_cast<double>(kMiB);
    }
    const int n = static_cast<int>(loads.size());
    const Occupancy occ{n, n, static_cast<Bytes>(rng.uniform_int(1, 3 * n)) * kGiB / 2};
    BackgroundLoad background;
    if (rng.uniform() < 0.3) background.disk_rate = rng.uniform(0.0, 0.8) * node.disk_bandwidth;
    expect_bitwise(model.solve_cached(node, occ, background, loads),
                   ComputeModel::solve(node, occ, background, loads));
    if (HasFatalFailure()) return;
  }
  const MaxMinSolver::Stats stats = model.solver_stats();
  EXPECT_GE(stats.cap_feasible_solves, 100u);
  EXPECT_GE(stats.full_solves - stats.cap_feasible_solves, 100u);
}

TEST(MaxMinSolverDifferential, ExactRepeatHitsCache) {
  MaxMinSolver solver;
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  const auto first = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(first[0], 50.0);
  solver.solve(caps, flows);
  solver.solve(caps, flows);
  EXPECT_EQ(solver.stats().calls, 3u);
  EXPECT_EQ(solver.stats().full_solves, 1u);
  EXPECT_EQ(solver.stats().cache_hits, 2u);
}

TEST(MaxMinSolverDifferential, SlackCapMoveHitsFastPath) {
  MaxMinSolver solver;
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 90.0;  // far above the 50/50 fair share
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  solver.solve(caps, flows);
  flows[0].rate_cap = 80.0;  // still far above; provably non-binding
  const auto rates = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
  EXPECT_EQ(solver.stats().cap_fast_hits, 1u);
  EXPECT_EQ(solver.stats().full_solves, 1u);
  // Cap moving below the rate must force a re-solve, and bind.
  flows[0].rate_cap = 20.0;
  const auto rebound = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rebound[0], 20.0);
  EXPECT_DOUBLE_EQ(rebound[1], 80.0);
  EXPECT_EQ(solver.stats().full_solves, 2u);
}

TEST(MaxMinSolverDifferential, BindingCapFlowNeverFastPaths) {
  MaxMinSolver solver;
  const std::vector<double> caps{100.0};
  std::vector<FlowDemand> flows(2);
  flows[0].rate_cap = 10.0;  // binds: frozen by cap, not by the resource
  flows[0].uses = {{0, 1.0}};
  flows[1].rate_cap = kNoCap;
  flows[1].uses = {{0, 1.0}};
  solver.solve(caps, flows);
  flows[0].rate_cap = 15.0;  // above the old rate, but flow was cap-frozen
  const auto rates = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 15.0);
  EXPECT_DOUBLE_EQ(rates[1], 85.0);
  EXPECT_EQ(solver.stats().cap_fast_hits, 0u);
  EXPECT_EQ(solver.stats().full_solves, 2u);
}

TEST(MaxMinSolverDifferential, InvalidateForcesResolve) {
  MaxMinSolver solver;
  const std::vector<double> caps{60.0};
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 2.0}};
  solver.solve(caps, flows);
  solver.invalidate();
  const auto rates = solver.solve(caps, flows);
  EXPECT_DOUBLE_EQ(rates[0], 30.0);
  EXPECT_EQ(solver.stats().full_solves, 2u);
  EXPECT_EQ(solver.stats().cache_hits, 0u);
}

TEST(MaxMinSolverDifferential, RejectedProblemIsNotCached) {
  MaxMinSolver solver;
  std::vector<double> caps{60.0};
  std::vector<FlowDemand> flows(1);
  flows[0].rate_cap = kNoCap;
  flows[0].uses = {{0, 2.0}};
  solver.solve(caps, flows);
  caps[0] = -1.0;
  EXPECT_THROW(solver.solve(caps, flows), SmrError);
  EXPECT_THROW(solver.solve(caps, flows), SmrError);
  EXPECT_EQ(solver.stats().cache_hits, 0u);
}

TEST(MaxMinSolverDifferential, EmptyProblemRoundTrips) {
  MaxMinSolver solver;
  const auto rates = solver.solve({}, {});
  EXPECT_TRUE(rates.empty());
  solver.solve({}, {});
  EXPECT_EQ(solver.stats().cache_hits, 1u);
}

}  // namespace
}  // namespace smr::cluster
