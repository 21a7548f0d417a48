#include "smr/cluster/compute_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "smr/common/rng.hpp"
#include "smr/workload/puma.hpp"

namespace smr::cluster {
namespace {

NodeSpec paper_node() { return NodeSpec{}; }

// Aggregate map-input throughput of one node running `n` identical map
// tasks of the given workload — the quantity plotted in the paper's Fig. 1.
double aggregate_map_rate(const NodeSpec& node, const mapreduce::JobSpec& spec, int n) {
  Occupancy occ;
  occ.threads = n;
  occ.io_streams = n;
  occ.memory_demand = spec.map_task_memory * n;
  std::vector<PhaseLoad> loads(
      static_cast<std::size_t>(n),
      PhaseLoad{spec.map_cpu_per_mib / static_cast<double>(kMiB),
                1.0 + spec.map_selectivity * spec.spill_disk_factor, kNoCap, 1.0});
  const auto rates = ComputeModel::solve(node, occ, {}, loads);
  double total = 0.0;
  for (double r : rates) total += r;
  return total;
}

int hump_position(const NodeSpec& node, const mapreduce::JobSpec& spec, int max_slots) {
  int best = 1;
  double best_rate = 0.0;
  for (int n = 1; n <= max_slots; ++n) {
    const double rate = aggregate_map_rate(node, spec, n);
    if (rate > best_rate) {
      best_rate = rate;
      best = n;
    }
  }
  return best;
}

TEST(ThreadEfficiency, MonotoneNonIncreasing) {
  const NodeSpec node = paper_node();
  double prev = ComputeModel::thread_efficiency(node, 0);
  for (int t = 1; t <= 64; ++t) {
    const double e = ComputeModel::thread_efficiency(node, t);
    EXPECT_LE(e, prev + 1e-12);
    prev = e;
  }
}

TEST(ThreadEfficiency, OneThreadIsPerfect) {
  EXPECT_DOUBLE_EQ(ComputeModel::thread_efficiency(paper_node(), 1), 1.0);
  EXPECT_DOUBLE_EQ(ComputeModel::thread_efficiency(paper_node(), 0), 1.0);
}

TEST(ThreadEfficiency, SteeperBeyondCoreCount) {
  const NodeSpec node = paper_node();
  const double drop_below =
      ComputeModel::thread_efficiency(node, node.cores - 1) -
      ComputeModel::thread_efficiency(node, node.cores);
  const double drop_above =
      ComputeModel::thread_efficiency(node, node.cores + 1) -
      ComputeModel::thread_efficiency(node, node.cores + 2);
  EXPECT_GT(drop_above, drop_below);
}

TEST(PagingFactor, UnityWhileMemoryFits) {
  const NodeSpec node = paper_node();
  EXPECT_DOUBLE_EQ(ComputeModel::paging_factor(node, 0), 1.0);
  EXPECT_DOUBLE_EQ(ComputeModel::paging_factor(node, node.available_memory()), 1.0);
}

TEST(PagingFactor, QuadraticCollapseBeyondMemory) {
  const NodeSpec node = paper_node();
  const Bytes avail = node.available_memory();
  const double slight = ComputeModel::paging_factor(node, avail + avail / 10);
  const double heavy = ComputeModel::paging_factor(node, 2 * avail);
  EXPECT_LT(slight, 1.0);
  EXPECT_GT(slight, 0.5);
  EXPECT_LT(heavy, 0.1);
}

TEST(DiskEfficiency, SeekPenaltyPerStream) {
  const NodeSpec node = paper_node();
  EXPECT_DOUBLE_EQ(ComputeModel::disk_efficiency(node, 1), 1.0);
  EXPECT_LT(ComputeModel::disk_efficiency(node, 8), 1.0);
  EXPECT_LT(ComputeModel::disk_efficiency(node, 16),
            ComputeModel::disk_efficiency(node, 8));
}

TEST(Solve, EmptyLoadsGiveEmptyRates) {
  EXPECT_TRUE(ComputeModel::solve(paper_node(), {}, {}, {}).empty());
}

TEST(Solve, SingleCpuBoundTaskRunsAtOneCore) {
  const NodeSpec node = paper_node();
  Occupancy occ{1, 1, 1 * kGiB};
  // 0.35 cpu-s/MiB -> one core sustains 1/0.35 MiB/s.
  std::vector<PhaseLoad> loads{
      {0.35 / static_cast<double>(kMiB), 1.0, kNoCap, 1.0}};
  const auto rates = ComputeModel::solve(node, occ, {}, loads);
  EXPECT_NEAR(rates[0], static_cast<double>(kMiB) / 0.35, 1.0);
}

TEST(Solve, ExternalRateCapRespected) {
  const NodeSpec node = paper_node();
  Occupancy occ{1, 1, 1 * kGiB};
  std::vector<PhaseLoad> loads{
      {0.35 / static_cast<double>(kMiB), 1.0, 1000.0, 1.0}};
  const auto rates = ComputeModel::solve(node, occ, {}, loads);
  EXPECT_DOUBLE_EQ(rates[0], 1000.0);
}

TEST(Solve, BackgroundLoadShrinksForeground) {
  const NodeSpec node = paper_node();
  // Disk-hungry mix: 8 streams whose disk demand exceeds what remains once
  // the background claims half the disk.
  Occupancy occ{8, 8, 16 * kGiB};
  std::vector<PhaseLoad> loads(
      8, PhaseLoad{0.18 / static_cast<double>(kMiB), 2.3, kNoCap, 1.0});
  const auto free_rates = ComputeModel::solve(node, occ, {}, loads);
  BackgroundLoad bg;
  bg.disk_rate = node.disk_bandwidth * 0.5;
  const auto loaded_rates = ComputeModel::solve(node, occ, bg, loads);
  double free_total = 0.0, loaded_total = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    free_total += free_rates[i];
    loaded_total += loaded_rates[i];
  }
  EXPECT_LT(loaded_total, free_total);
}

TEST(Solve, ForegroundNeverFullyStarved) {
  const NodeSpec node = paper_node();
  Occupancy occ{1, 1, 1 * kGiB};
  BackgroundLoad bg;
  bg.cpu_cores = 1000.0;  // absurd background
  bg.disk_rate = 1e12;
  std::vector<PhaseLoad> loads{
      {0.35 / static_cast<double>(kMiB), 1.0, kNoCap, 1.0}};
  const auto rates = ComputeModel::solve(node, occ, bg, loads);
  EXPECT_GT(rates[0], 0.0);
}

TEST(Solve, SlowNodeScalesWithCpuSpeed) {
  NodeSpec slow = paper_node();
  slow.cpu_speed = 0.5;
  Occupancy occ{1, 1, 1 * kGiB};
  std::vector<PhaseLoad> loads{
      {0.35 / static_cast<double>(kMiB), 0.0, kNoCap, 1.0}};
  const auto fast_rate = ComputeModel::solve(paper_node(), occ, {}, loads)[0];
  const auto slow_rate = ComputeModel::solve(slow, occ, {}, loads)[0];
  EXPECT_NEAR(slow_rate, fast_rate * 0.5, 1.0);
}

// ---------------------------------------------------------------------------
// The paper's Fig. 1 properties: a thrashing hump exists, and its position
// orders Grep > TermVector > Terasort.
// ---------------------------------------------------------------------------

class ThrashingHump : public ::testing::TestWithParam<workload::Puma> {};

TEST_P(ThrashingHump, ThroughputRisesThenFalls) {
  const NodeSpec node = paper_node();
  const auto spec = workload::make_puma_job(GetParam());
  const int hump = hump_position(node, spec, 16);
  EXPECT_GT(hump, 1) << "throughput must improve beyond one slot";
  // Past the hump the curve must genuinely fall, not merely flatten.
  const double at_hump = aggregate_map_rate(node, spec, hump);
  const double past = aggregate_map_rate(node, spec, std::min(16, hump + 3));
  EXPECT_LT(past, at_hump * 0.98)
      << spec.name << ": no fall after the hump at " << hump;
}

TEST_P(ThrashingHump, RisesMonotonicallyBeforeHump) {
  const NodeSpec node = paper_node();
  const auto spec = workload::make_puma_job(GetParam());
  const int hump = hump_position(node, spec, 16);
  double prev = 0.0;
  for (int n = 1; n <= hump; ++n) {
    const double rate = aggregate_map_rate(node, spec, n);
    EXPECT_GE(rate, prev - 1e-6) << spec.name << " dipped before hump at n=" << n;
    prev = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig1Benchmarks, ThrashingHump,
    ::testing::Values(workload::Puma::kTerasort, workload::Puma::kTermVector,
                      workload::Puma::kGrep, workload::Puma::kHistogramRatings,
                      workload::Puma::kInvertedIndex),
    [](const auto& info) {
      std::string name = workload::puma_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest parameter names must be identifiers
      }
      return name;
    });

TEST(ThrashingOrder, GrepAboveTermVectorAboveTerasort) {
  // Paper §II-B: "map-heavy jobs have a higher thrashing point than
  // reduce-heavy jobs".
  const NodeSpec node = paper_node();
  const int grep =
      hump_position(node, workload::make_puma_job(workload::Puma::kGrep), 16);
  const int termvector =
      hump_position(node, workload::make_puma_job(workload::Puma::kTermVector), 16);
  const int terasort =
      hump_position(node, workload::make_puma_job(workload::Puma::kTerasort), 16);
  EXPECT_GT(grep, termvector);
  EXPECT_GT(termvector, terasort);
  EXPECT_GE(terasort, 2);  // still above the 1-slot floor
}

TEST(ThrashingOrder, ResidentReducersLowerTheMapHump) {
  // Paper §II-B: reduce-heavy jobs "suffer an early map thrashing point"
  // because shuffling/reducing consumes resources.  Adding resident reduce
  // tasks to the occupancy must not raise the hump.
  const NodeSpec node = paper_node();
  const auto spec = workload::make_puma_job(workload::Puma::kTerasort);
  auto hump_with_reducers = [&](int reducers) {
    int best = 1;
    double best_rate = 0.0;
    for (int n = 1; n <= 12; ++n) {
      Occupancy occ;
      occ.threads = n + 2 * reducers;
      occ.io_streams = n + reducers;
      occ.memory_demand = spec.map_task_memory * n + spec.reduce_task_memory * reducers;
      std::vector<PhaseLoad> loads(
          static_cast<std::size_t>(n),
          PhaseLoad{spec.map_cpu_per_mib / static_cast<double>(kMiB),
                    1.0 + spec.map_selectivity * spec.spill_disk_factor, kNoCap, 1.0});
      const auto rates = ComputeModel::solve(node, occ, {}, loads);
      double total = 0.0;
      for (double r : rates) total += r;
      if (total > best_rate) {
        best_rate = total;
        best = n;
      }
    }
    return best;
  };
  EXPECT_LE(hump_with_reducers(2), hump_with_reducers(0));
}

// Two-entry raw-input memo on the per-node solve.  Inputs of distinct load
// counts, so every memo miss is a full solve.
struct ComputeInput {
  Occupancy occ;
  BackgroundLoad background;
  std::vector<PhaseLoad> loads;
};

std::vector<ComputeInput> compute_memo_pool() {
  const double mib = static_cast<double>(kMiB);
  const PhaseLoad map{0.2 / mib, 1.0, kNoCap, 1.0};
  const PhaseLoad spill{0.05 / mib, 2.5, kNoCap, 1.0};
  const PhaseLoad remote{0.2 / mib, 0.0, 30.0 * mib, 1.0};
  const PhaseLoad reduce{0.1 / mib, 1.3, kNoCap, 1.0};
  return {
      {{2, 2, 4 * kGiB}, {}, {map, spill}},
      {{5, 4, 9 * kGiB}, {0.5, 20.0 * mib}, {map, map, remote, reduce, spill}},
      {{3, 3, 6 * kGiB}, {0.25, 0.0}, {remote, reduce, map}},
      {{9, 9, 30 * kGiB}, {}, {map, map, map, map, map, map, map, map, map}},
  };
}

std::uint64_t replay_compute_sequence(ComputeModel& model, const std::vector<int>& sequence) {
  const NodeSpec node = paper_node();
  const auto pool = compute_memo_pool();
  std::vector<int> window;  // last two distinct inputs, most recent first
  std::uint64_t misses = 0;
  for (const int k : sequence) {
    const ComputeInput& in = pool[static_cast<std::size_t>(k)];
    const std::vector<double>& actual = model.solve_cached(node, in.occ, in.background, in.loads);
    const std::vector<double> expected =
        ComputeModel::solve(node, in.occ, in.background, in.loads);
    EXPECT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size() && i < actual.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << "input " << k << " load " << i;
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

TEST(ComputeModelMemo, ABABCAMatchesOracleAndSolvesOnlyOutsideTheWindow) {
  ComputeModel model;
  const std::vector<int> sequence = {0, 1, 0, 1, 2, 0};
  const std::uint64_t misses = replay_compute_sequence(model, sequence);
  EXPECT_EQ(misses, 4u);
  const MaxMinSolver::Stats stats = model.solver_stats();
  EXPECT_EQ(stats.calls, sequence.size());
  EXPECT_EQ(stats.full_solves, misses);
  EXPECT_EQ(stats.cache_hits, sequence.size() - misses);
}

TEST(ComputeModelMemo, RandomSequencesSolveOnlyOutsideTheWindow) {
  Rng rng(0xc0e3011ULL);
  for (int run = 0; run < 20; ++run) {
    ComputeModel model;
    std::vector<int> sequence;
    for (int step = 0; step < 60; ++step) {
      sequence.push_back(static_cast<int>(rng.uniform_int(0, 3)));
    }
    const std::uint64_t misses = replay_compute_sequence(model, sequence);
    EXPECT_EQ(model.solver_stats().full_solves, misses) << "run " << run;
    EXPECT_EQ(model.solver_stats().calls, sequence.size());
  }
}

TEST(ComputeModelMemo, ReturnedReferenceStaysValidUntilTheNextCall) {
  const NodeSpec node = paper_node();
  const auto pool = compute_memo_pool();
  ComputeModel model;
  const auto solve = [&](int k) -> const std::vector<double>& {
    const ComputeInput& in = pool[static_cast<std::size_t>(k)];
    return model.solve_cached(node, in.occ, in.background, in.loads);
  };
  solve(0);
  solve(1);
  const std::vector<double>& rates = solve(0);  // hit on the older entry
  const ComputeInput& a = pool[0];
  EXPECT_EQ(rates, ComputeModel::solve(node, a.occ, a.background, a.loads));
  const ComputeInput& c = pool[2];
  EXPECT_EQ(solve(2), ComputeModel::solve(node, c.occ, c.background, c.loads));
}

}  // namespace
}  // namespace smr::cluster
