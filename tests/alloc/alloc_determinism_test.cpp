// Determinism harness for the registry allocators: every new policy must
// produce bit-identical results whether its trials run serially on the
// calling thread or fan out over a thread pool of any size, with
// multi-tenant contention keeping its caps actually binding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smr/alloc/registry.hpp"
#include "smr/common/thread_pool.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/workload/puma.hpp"

namespace smr::driver {
namespace {

/// A contended three-tenant batch: demands skew so Karma's pool and the
/// GameCapacity equilibrium both engage every period.
std::vector<JobSubmission> tenant_jobs() {
  const struct {
    const char* tenant;
    int gib;
    double at;
  } mix[] = {{"alice", 4, 0.0}, {"bob", 2, 5.0}, {"carol", 1, 10.0}};
  std::vector<JobSubmission> jobs;
  for (const auto& job : mix) {
    mapreduce::JobSpec spec =
        workload::make_puma_job(workload::Puma::kTerasort, job.gib * kGiB);
    spec.reduce_tasks = 8;
    spec.tenant = job.tenant;
    jobs.push_back({std::move(spec), job.at});
  }
  return jobs;
}

void expect_bitwise_equal(const metrics::RunResult& a,
                          const metrics::RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.engine_events, b.engine_events);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].submit_time, b.jobs[j].submit_time);
    EXPECT_EQ(a.jobs[j].start_time, b.jobs[j].start_time);
    EXPECT_EQ(a.jobs[j].maps_done_time, b.jobs[j].maps_done_time);
    EXPECT_EQ(a.jobs[j].finish_time, b.jobs[j].finish_time);
    EXPECT_EQ(a.jobs[j].failed, b.jobs[j].failed);
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

class AllocDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocDeterminism, BitIdenticalAcrossPoolSizes) {
  ExperimentConfig config =
      ExperimentConfig::paper_default(EngineKind::kHadoopV1);
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.trials = 3;
  config.policy = alloc::parse_policy_spec(GetParam());
  const std::vector<JobSubmission> jobs = tenant_jobs();

  // The serial reference: each trial on this thread, averaged in order.
  std::vector<metrics::RunResult> trials;
  for (int t = 0; t < config.trials; ++t) {
    trials.push_back(run_trial(config, jobs,
                               config.runtime.seed + static_cast<std::uint64_t>(t)));
  }
  const metrics::RunResult serial = metrics::average_trials(trials);
  ASSERT_TRUE(serial.completed);
  ThreadPool one(1);
  ThreadPool many(16);
  for (ThreadPool* pool : {&one, &many}) {
    SCOPED_TRACE(std::string(GetParam()) +
                 " threads=" + std::to_string(pool->thread_count()));
    expect_bitwise_equal(serial, run_experiment(config, jobs, *pool));
  }
}

INSTANTIATE_TEST_SUITE_P(RegistryPolicies, AllocDeterminism,
                         ::testing::Values("karma", "gamecapacity",
                                           "hybridjobdriven",
                                           "karma:decay=0.99,init_credits=10",
                                           "gamecapacity:deadline_weight=2"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace smr::driver
