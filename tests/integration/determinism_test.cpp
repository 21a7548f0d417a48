// Determinism harness: the parallel trial/sweep runners must produce
// bit-for-bit identical results for any thread-pool size, and repeated
// runs of the same configuration must agree exactly — the invariant the
// fast-path work (incremental solver, lazy-deletion heap, parallel
// runners) is locked down by.
#include <gtest/gtest.h>

#include <vector>

#include "smr/common/thread_pool.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/driver/sweep.hpp"
#include "smr/workload/puma.hpp"
#include "smr/workload/synthetic.hpp"

namespace smr::driver {
namespace {

ExperimentConfig small_config(EngineKind engine, int trials) {
  ExperimentConfig config = ExperimentConfig::paper_default(engine);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.trials = trials;
  return config;
}

std::vector<JobSubmission> small_jobs() {
  mapreduce::JobSpec spec = workload::make_puma_job(workload::Puma::kGrep, 2 * kGiB);
  spec.reduce_tasks = 8;
  return {JobSubmission{spec, 0.0}};
}

// Bitwise equality over everything a run reports.  EXPECT_EQ on doubles is
// exact (no tolerance), which is the point: identical arithmetic order
// must produce identical bits.
void expect_bitwise_equal(const metrics::RunResult& a, const metrics::RunResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].submit_time, b.jobs[j].submit_time);
    EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time);
    EXPECT_EQ(a.jobs[j].maps_done_time, b.jobs[j].maps_done_time);
    EXPECT_EQ(a.jobs[j].finish_time, b.jobs[j].finish_time);
    EXPECT_EQ(a.jobs[j].failed, b.jobs[j].failed);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.engine_events, b.engine_events);
  ASSERT_EQ(a.progress.size(), b.progress.size());
  for (std::size_t j = 0; j < a.progress.size(); ++j) {
    ASSERT_EQ(a.progress[j].size(), b.progress[j].size());
    for (std::size_t s = 0; s < a.progress[j].size(); ++s) {
      EXPECT_EQ(a.progress[j][s].time, b.progress[j][s].time);
      EXPECT_EQ(a.progress[j][s].map_pct, b.progress[j][s].map_pct);
      EXPECT_EQ(a.progress[j][s].reduce_pct, b.progress[j][s].reduce_pct);
    }
  }
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    EXPECT_EQ(a.slots[s].time, b.slots[s].time);
    EXPECT_EQ(a.slots[s].map_target, b.slots[s].map_target);
    EXPECT_EQ(a.slots[s].reduce_target, b.slots[s].reduce_target);
    EXPECT_EQ(a.slots[s].running_maps, b.slots[s].running_maps);
    EXPECT_EQ(a.slots[s].running_reduces, b.slots[s].running_reduces);
  }
}

TEST(Determinism, TrialsBitIdenticalAcrossPoolSizes) {
  for (EngineKind engine : all_engines()) {
    const ExperimentConfig config = small_config(engine, 4);
    ThreadPool one(1);
    ThreadPool many(16);
    const metrics::RunResult serial = run_experiment(config, small_jobs(), one);
    const metrics::RunResult parallel = run_experiment(config, small_jobs(), many);
    SCOPED_TRACE(engine_name(engine));
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(Determinism, RepeatedRunsBitIdentical) {
  const ExperimentConfig config = small_config(EngineKind::kSMapReduce, 2);
  const metrics::RunResult first = run_experiment(config, small_jobs());
  const metrics::RunResult second = run_experiment(config, small_jobs());
  expect_bitwise_equal(first, second);
}

TEST(Determinism, MultiJobFairSchedulerBitIdenticalAcrossPoolSizes) {
  // The synthetic multi-job path exercises scheduler interleavings and the
  // speculative/failure machinery more aggressively than one PUMA job.
  workload::SyntheticMixConfig mix;
  mix.jobs = 4;
  mix.min_input = kGiB;
  mix.max_input = 4 * kGiB;
  mix.reduce_tasks = 8;
  mix.seed = 11;
  ExperimentConfig config = small_config(EngineKind::kSMapReduce, 3);
  config.scheduler = SchedulerKind::kFair;
  std::vector<JobSubmission> jobs;
  for (auto& job : workload::make_synthetic_mix(mix)) {
    jobs.push_back({std::move(job.spec), job.submit_at});
  }
  ThreadPool one(1);
  ThreadPool many(16);
  const metrics::RunResult serial = run_experiment(config, jobs, one);
  const metrics::RunResult parallel = run_experiment(config, jobs, many);
  expect_bitwise_equal(serial, parallel);
}

TEST(Determinism, SweepBitIdenticalAcrossPoolSizes) {
  SweepConfig config;
  config.base = small_config(EngineKind::kHadoopV1, 2);
  config.spec = workload::make_puma_job(workload::Puma::kGrep, kGiB);
  config.spec.reduce_tasks = 8;
  config.dimension = SweepDimension::kMapSlots;
  config.values = {1, 2, 3};
  config.engines = {EngineKind::kHadoopV1, EngineKind::kSMapReduce};

  ThreadPool one(1);
  ThreadPool many(16);
  const SweepResult serial = run_sweep(config, one);
  const SweepResult parallel = run_sweep(config, many);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(serial.cells[i].value, parallel.cells[i].value);
    EXPECT_EQ(serial.cells[i].engine, parallel.cells[i].engine);
    EXPECT_EQ(serial.cells[i].job.start_time, parallel.cells[i].job.start_time);
    EXPECT_EQ(serial.cells[i].job.maps_done_time, parallel.cells[i].job.maps_done_time);
    EXPECT_EQ(serial.cells[i].job.finish_time, parallel.cells[i].job.finish_time);
    EXPECT_EQ(serial.cells[i].engine_events, parallel.cells[i].engine_events);
  }
}

TEST(Determinism, SolverCountersAreDeterministic) {
  // The solver's cache-hit pattern is part of the deterministic state: the
  // same run must take exactly the same fast paths every time.
  const ExperimentConfig config = small_config(EngineKind::kSMapReduce, 1);
  const metrics::RunResult first = run_experiment(config, small_jobs());
  const metrics::RunResult second = run_experiment(config, small_jobs());
  EXPECT_GT(first.solver_calls, 0u);
  EXPECT_LT(first.solver_full_solves, first.solver_calls);  // cache does work
  EXPECT_EQ(first.solver_calls, second.solver_calls);
  EXPECT_EQ(first.solver_full_solves, second.solver_full_solves);
}

}  // namespace
}  // namespace smr::driver
