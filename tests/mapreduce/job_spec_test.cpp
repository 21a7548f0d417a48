#include "smr/mapreduce/job_spec.hpp"

#include <gtest/gtest.h>

namespace smr::mapreduce {
namespace {

TEST(JobSpec, MapTaskCountRoundsUp) {
  JobSpec spec;
  spec.input_size = 30 * kGiB;
  spec.split_size = 128 * kMiB;
  EXPECT_EQ(spec.map_task_count(), 240);
  spec.input_size = 30 * kGiB + 1;
  EXPECT_EQ(spec.map_task_count(), 241);
}

TEST(JobSpec, MapOutputScalesWithSelectivity) {
  JobSpec spec;
  spec.input_size = 10 * kGiB;
  spec.map_selectivity = 0.5;
  EXPECT_EQ(spec.map_output_total(), 5 * kGiB);
  spec.map_selectivity = 0.0;
  EXPECT_EQ(spec.map_output_total(), 0);
}

TEST(JobSpec, PartitionSizeIsUniformShare) {
  JobSpec spec;
  spec.input_size = 30 * kGiB;
  spec.map_selectivity = 1.0;
  spec.reduce_tasks = 30;
  EXPECT_EQ(spec.partition_size(), 1 * kGiB);
}

TEST(JobSpec, MapHeavyClassification) {
  JobSpec spec;
  spec.map_selectivity = 0.001;
  EXPECT_TRUE(spec.map_heavy());
  spec.map_selectivity = 1.0;
  EXPECT_FALSE(spec.map_heavy());
}

TEST(JobSpec, DefaultsValidate) {
  EXPECT_NO_THROW(JobSpec{}.validate());
}

TEST(JobSpec, TaskCountsAreCapped) {
  JobSpec spec;
  spec.input_size = kMaxTasks * spec.split_size;  // exactly at the cap
  EXPECT_EQ(spec.map_task_count_wide(), kMaxTasks);
  EXPECT_NO_THROW(spec.validate());
  spec.input_size += 1;  // one more (partial) split
  EXPECT_THROW(spec.validate(), SmrError);
  spec.input_size = static_cast<Bytes>(1e9 * static_cast<double>(kGiB));
  EXPECT_THROW(spec.validate(), SmrError);
  EXPECT_DOUBLE_EQ(kMaxInputGib * static_cast<double>(kGiB),
                   static_cast<double>(kMaxTasks * JobSpec{}.split_size));

  spec = JobSpec{};
  spec.reduce_tasks = static_cast<int>(kMaxTasks);
  EXPECT_NO_THROW(spec.validate());
  spec.reduce_tasks += 1;
  EXPECT_THROW(spec.validate(), SmrError);
}

TEST(JobSpec, ValidateCatchesBadFields) {
  JobSpec spec;
  spec.input_size = 0;
  EXPECT_THROW(spec.validate(), SmrError);

  spec = JobSpec{};
  spec.reduce_tasks = 0;
  EXPECT_THROW(spec.validate(), SmrError);

  spec = JobSpec{};
  spec.map_cpu_per_mib = 0.0;
  EXPECT_THROW(spec.validate(), SmrError);

  spec = JobSpec{};
  spec.map_selectivity = -0.1;
  EXPECT_THROW(spec.validate(), SmrError);

  spec = JobSpec{};
  spec.shuffle_fetch_cap = 0.0;
  EXPECT_THROW(spec.validate(), SmrError);

  spec = JobSpec{};
  spec.duration_cv = -1.0;
  EXPECT_THROW(spec.validate(), SmrError);
}

}  // namespace
}  // namespace smr::mapreduce
