#include "smr/mapreduce/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "smr/workload/puma.hpp"

namespace smr::mapreduce {
namespace {

RuntimeConfig small_config(int nodes = 4) {
  RuntimeConfig config;
  config.cluster = cluster::ClusterSpec::paper_testbed(nodes);
  config.initial_map_slots = 3;
  config.initial_reduce_slots = 2;
  config.seed = 7;
  return config;
}

JobSpec small_job(double selectivity = 0.5) {
  JobSpec spec;
  spec.name = "small";
  spec.input_size = 2 * kGiB;
  spec.split_size = 128 * kMiB;
  spec.reduce_tasks = 8;
  spec.map_cpu_per_mib = 0.2;
  spec.map_selectivity = selectivity;
  spec.reduce_cpu_per_mib = 0.1;
  spec.map_task_memory = 2 * kGiB;
  spec.reduce_task_memory = 2 * kGiB;
  return spec;
}

metrics::RunResult run_one(const RuntimeConfig& config, const JobSpec& spec) {
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(spec, 0.0);
  return runtime.run();
}

TEST(Runtime, SingleJobCompletesWithOrderedTimestamps) {
  const auto result = run_one(small_config(), small_job());
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.jobs.size(), 1u);
  const auto& job = result.jobs[0];
  EXPECT_DOUBLE_EQ(job.submit_time, 0.0);
  EXPECT_GT(job.start_time, 0.0);           // first heartbeat assigns
  EXPECT_GT(job.maps_done_time, job.start_time);
  EXPECT_GT(job.finish_time, job.maps_done_time);
  EXPECT_GT(job.map_time(), 0.0);
  EXPECT_GT(job.reduce_time(), 0.0);
  EXPECT_GT(job.throughput(), 0.0);
}

TEST(Runtime, BytesConservedThroughShuffle) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  const JobSpec spec = small_job(0.7);
  runtime.submit(spec, 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  const Job& job = runtime.jobs()[0];

  // Sum of per-map outputs equals the sum of partition sizes.
  Bytes outputs = 0;
  for (const auto& m : job.maps) outputs += m.output_size;
  Bytes partitions = 0;
  for (const auto& r : job.reduces) partitions += r.partition_size;
  EXPECT_EQ(outputs, partitions);

  // Every byte produced was shuffled exactly once (fluid accounting).
  EXPECT_NEAR(job.bytes_shuffled, static_cast<double>(outputs),
              1.0 + 1e-6 * static_cast<double>(outputs));
  // And every reduce fetched exactly its partition.
  for (const auto& r : job.reduces) {
    EXPECT_NEAR(r.fetched, static_cast<double>(r.partition_size), 1.0);
  }
  // Map input fully processed.
  EXPECT_NEAR(job.map_input_processed, static_cast<double>(spec.input_size),
              1e-6 * static_cast<double>(spec.input_size) + 1.0);
}

TEST(Runtime, BarrierHoldsSortAfterAllMapsFinish) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(1.0), 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  const Job& job = runtime.jobs()[0];
  for (const auto& r : job.reduces) {
    // The shuffle may overlap maps but can only *end* at/after the barrier,
    // and SORT/REDUCE run strictly after it.
    EXPECT_GE(r.shuffle_end_time, job.maps_done_time);
    EXPECT_GE(r.finish_time, r.shuffle_end_time);
  }
}

TEST(Runtime, ShuffleOverlapsMapPhase) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(1.0), 0.0);
  runtime.run();
  const Job& job = runtime.jobs()[0];
  // With selectivity 1.0 and slow-start 5%, a substantial part of the
  // shuffle must have happened before the barrier: at the barrier the
  // reducers collectively fetched more than nothing.
  double fetched_at_end = 0.0;
  for (const auto& r : job.reduces) fetched_at_end += r.fetched;
  EXPECT_GT(fetched_at_end, 0.0);
  // Reduce tasks started (shuffling) before the barrier.
  for (const auto& r : job.reduces) {
    EXPECT_LT(r.start_time, job.maps_done_time);
  }
}

TEST(Runtime, ReduceSlowstartGatesReduceLaunch) {
  RuntimeConfig config = small_config();
  config.reduce_slowstart = 1.0;  // reduces only after every map finishes
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(0.5), 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  const Job& job = runtime.jobs()[0];
  for (const auto& r : job.reduces) {
    EXPECT_GE(r.start_time, job.maps_done_time);
  }
}

TEST(Runtime, DeterministicAcrossRuns) {
  const RuntimeConfig config = small_config();
  const JobSpec spec = small_job();
  const auto a = run_one(config, spec);
  const auto b = run_one(config, spec);
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_DOUBLE_EQ(a.jobs[0].finish_time, b.jobs[0].finish_time);
  EXPECT_DOUBLE_EQ(a.jobs[0].maps_done_time, b.jobs[0].maps_done_time);
}

TEST(Runtime, DifferentSeedsPerturbResults) {
  RuntimeConfig config = small_config();
  const JobSpec spec = small_job();
  const auto a = run_one(config, spec);
  config.seed = 8;
  const auto b = run_one(config, spec);
  EXPECT_NE(a.jobs[0].finish_time, b.jobs[0].finish_time);
  // ... but not by much (same workload, jittered tasks).
  EXPECT_NEAR(a.jobs[0].finish_time, b.jobs[0].finish_time,
              0.3 * a.jobs[0].finish_time);
}

TEST(Runtime, MostMapLaunchesAreLocalWithTripleReplication) {
  RuntimeConfig config = small_config(8);
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  JobSpec spec = small_job();
  spec.input_size = 8 * kGiB;  // 64 maps over 8 nodes
  runtime.submit(spec, 0.0);
  runtime.run();
  const int local = runtime.local_map_launches();
  const int remote = runtime.remote_map_launches();
  EXPECT_EQ(local + remote, 64);
  EXPECT_GT(local, remote);  // replication 3 on 8 nodes: locality dominates
}

TEST(Runtime, RemoteReadsStillCompleteWithSingleReplica) {
  RuntimeConfig config = small_config(8);
  config.cluster.dfs_replication = 1;
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  const auto result = runtime.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(runtime.remote_map_launches(), 0);
}

TEST(Runtime, FifoOrdersJobCompletion) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  runtime.submit(small_job(), 5.0);
  runtime.submit(small_job(), 10.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  EXPECT_LE(result.jobs[0].finish_time, result.jobs[1].finish_time);
  EXPECT_LE(result.jobs[1].finish_time, result.jobs[2].finish_time);
  // FIFO also orders barriers.
  EXPECT_LE(result.jobs[0].maps_done_time, result.jobs[1].maps_done_time);
}

TEST(Runtime, LaterJobWaitsForSlots) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  runtime.submit(small_job(), 5.0);
  const auto result = runtime.run();
  // Job 2's maps cannot all start at submission: its start time is its
  // first task launch, which happens once job 1 stops hogging every slot.
  EXPECT_GE(result.jobs[1].start_time, 5.0);
}

TEST(Runtime, ZeroSelectivityJobCompletes) {
  const auto result = run_one(small_config(), small_job(0.0));
  ASSERT_TRUE(result.completed);
  // Reduce tail degenerates: nothing to shuffle/sort/reduce.
  EXPECT_LT(result.jobs[0].reduce_time(), 10.0);
}

TEST(Runtime, ZeroSizePartitionsSettleOnTheBarrierTick) {
  // All 8 reducers launch before the barrier (8 reduce slots, slowstart
  // 0.05) and have nothing to fetch, so each settles and completes in the
  // tick its job's last map finishes, whether or not the tick's census was
  // rebuilt.
  Runtime runtime(small_config(), std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(0.0), 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  const Job& job = runtime.jobs()[0];
  for (const auto& r : job.reduces) {
    EXPECT_EQ(r.partition_size, 0);
    EXPECT_LT(r.start_time, job.maps_done_time);
    EXPECT_EQ(r.shuffle_end_time, job.maps_done_time);
    EXPECT_EQ(r.finish_time, job.maps_done_time);
  }
  EXPECT_EQ(result.jobs[0].finish_time, result.jobs[0].maps_done_time);
}

TEST(Runtime, TimeLimitReportsIncomplete) {
  RuntimeConfig config = small_config();
  config.time_limit = 10.0;  // the job needs far longer
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  const auto result = runtime.run();
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.jobs[0].finished());
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(Runtime, ProgressSamplesMonotone) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  const auto result = runtime.run();
  ASSERT_EQ(result.progress.size(), 1u);
  const auto& series = result.progress[0];
  ASSERT_GT(series.size(), 3u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].time, series[i - 1].time);
    EXPECT_GE(series[i].map_pct, series[i - 1].map_pct - 1e-9);
    EXPECT_GE(series[i].reduce_pct, series[i - 1].reduce_pct - 1e-9);
  }
  EXPECT_LE(series.back().total_pct(), 200.0 + 1e-9);
  EXPECT_GT(series.back().total_pct(), 150.0);  // sampled close to the end
}

TEST(Runtime, StaticPolicyNeverMovesTargets) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  const auto result = runtime.run();
  for (const auto& sample : result.slots) {
    EXPECT_DOUBLE_EQ(sample.map_target, 3.0);
    EXPECT_DOUBLE_EQ(sample.reduce_target, 2.0);
    EXPECT_LE(sample.running_maps, 3.0 + 1e-9);
    EXPECT_LE(sample.running_reduces, 2.0 + 1e-9);
  }
}

TEST(Runtime, SingleNodeClusterWorks) {
  RuntimeConfig config = small_config(1);
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  JobSpec spec = small_job();
  spec.input_size = 512 * kMiB;
  spec.reduce_tasks = 2;
  runtime.submit(spec, 0.0);
  const auto result = runtime.run();
  EXPECT_TRUE(result.completed);
}

TEST(Runtime, UsageErrorsThrow) {
  RuntimeConfig config = small_config();
  {
    Runtime empty(config, std::make_unique<StaticSlotPolicy>());
    EXPECT_THROW(empty.run(), SmrError);  // no jobs
  }
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  runtime.run();
  EXPECT_THROW(runtime.run(), SmrError);                      // run twice
  EXPECT_THROW(runtime.submit(small_job(), 0.0), SmrError);   // submit after run
}

TEST(Runtime, ConfigValidation) {
  RuntimeConfig config = small_config();
  config.tick = 0.0;
  EXPECT_THROW(config.validate(), SmrError);
  config = small_config();
  config.reduce_slowstart = 1.5;
  EXPECT_THROW(config.validate(), SmrError);
  config = small_config();
  config.initial_map_slots = 0;
  config.initial_reduce_slots = 0;
  EXPECT_THROW(config.validate(), SmrError);
}

TEST(Runtime, FaultFreeRunRegistersOnlyTheInstrumentsItUpdates) {
  // The runtime binds its instruments on first use, so a fault-free run
  // registers exactly what it updates: no zero-valued failure counters.
  obs::MetricsRegistry registry;
  Runtime runtime(small_config(), std::make_unique<StaticSlotPolicy>());
  runtime.set_metrics(&registry);
  runtime.submit(small_job(), 0.0);
  ASSERT_TRUE(runtime.run().completed);
  const std::vector<std::string> expected = {
      "heartbeats.processed", "policy.periods",         "queue.pending_maps",
      "queue.pending_reduces", "shuffle.bytes_in_flight", "slots.map_target",
      "slots.reduce_target",   "task.map_duration_s",     "task.reduce_duration_s",
      "tasks.map_launches",    "tasks.reduce_launches",   "tasks.running_maps",
      "tasks.running_reduces"};
  EXPECT_EQ(registry.names(), expected);
  EXPECT_EQ(registry.counter("tasks.map_launches").value(), 16);
  EXPECT_EQ(registry.counter("tasks.reduce_launches").value(), 8);
}

TEST(Runtime, SnapshotCountsConsistent) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(), 0.0);
  // Probe mid-run via an engine event.
  bool checked = false;
  runtime.engine().schedule_at(30.0, [&] {
    const ClusterStats stats = runtime.snapshot();
    EXPECT_TRUE(stats.has_active_job);
    EXPECT_EQ(stats.total_maps, 16);
    EXPECT_EQ(stats.pending_maps + stats.running_maps + stats.finished_maps, 16);
    EXPECT_GE(stats.running_maps, 0);
    EXPECT_EQ(stats.nodes, 4);
    EXPECT_EQ(stats.active_jobs.size(), 1u);
    checked = true;
  });
  runtime.run();
  EXPECT_TRUE(checked);
}

// Sweep the barrier + conservation invariants across selectivities (the
// property that makes every other experiment trustworthy).
class ConservationSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConservationSweep, ShuffledEqualsProduced) {
  RuntimeConfig config = small_config();
  Runtime runtime(config, std::make_unique<StaticSlotPolicy>());
  runtime.submit(small_job(GetParam()), 0.0);
  const auto result = runtime.run();
  ASSERT_TRUE(result.completed);
  const Job& job = runtime.jobs()[0];
  Bytes outputs = 0;
  for (const auto& m : job.maps) outputs += m.output_size;
  EXPECT_NEAR(job.bytes_shuffled, static_cast<double>(outputs),
              1.0 + 1e-6 * static_cast<double>(outputs));
  for (const auto& r : job.reduces) {
    EXPECT_GE(r.shuffle_end_time, job.maps_done_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Selectivities, ConservationSweep,
                         ::testing::Values(0.0, 0.05, 0.3, 0.7, 1.0, 1.3));

}  // namespace
}  // namespace smr::mapreduce
