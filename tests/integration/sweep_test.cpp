#include "smr/driver/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "smr/workload/puma.hpp"

namespace smr::driver {
namespace {

SweepConfig small_sweep(SweepDimension dimension, std::vector<double> values) {
  SweepConfig config;
  config.base = ExperimentConfig::paper_default(EngineKind::kHadoopV1);
  config.base.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
  config.base.trials = 1;
  config.spec = workload::make_puma_job(workload::Puma::kGrep, 2 * kGiB);
  config.spec.reduce_tasks = 8;
  config.dimension = dimension;
  config.values = std::move(values);
  config.engines = {EngineKind::kHadoopV1, EngineKind::kSMapReduce};
  return config;
}

TEST(Sweep, DimensionNamesRoundTrip) {
  for (SweepDimension dimension :
       {SweepDimension::kMapSlots, SweepDimension::kInputGib, SweepDimension::kNodes,
        SweepDimension::kSeed}) {
    const auto parsed = sweep_dimension_from_name(sweep_dimension_name(dimension));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, dimension);
  }
  EXPECT_FALSE(sweep_dimension_from_name("bogus").has_value());
}

TEST(Sweep, CellsInValueMajorOrder) {
  const auto result = run_sweep(small_sweep(SweepDimension::kMapSlots, {2, 4}));
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_DOUBLE_EQ(result.cells[0].value, 2.0);
  EXPECT_EQ(result.cells[0].engine, EngineKind::kHadoopV1);
  EXPECT_DOUBLE_EQ(result.cells[1].value, 2.0);
  EXPECT_EQ(result.cells[1].engine, EngineKind::kSMapReduce);
  EXPECT_DOUBLE_EQ(result.cells[2].value, 4.0);
  for (const auto& cell : result.cells) EXPECT_TRUE(cell.job.finished());
}

TEST(Sweep, MapSlotsDimensionActuallyVariesSlots) {
  const auto result = run_sweep(small_sweep(SweepDimension::kMapSlots, {1, 6}));
  // HadoopV1 at 1 slot is much slower than at 6.
  EXPECT_GT(result.cells[0].job.map_time(), result.cells[2].job.map_time() * 2.0);
}

TEST(Sweep, InputDimensionScalesWork) {
  const auto result = run_sweep(small_sweep(SweepDimension::kInputGib, {1, 4}));
  EXPECT_GT(result.cells[2].job.total_time(), result.cells[0].job.total_time());
  EXPECT_EQ(result.cells[2].job.input_size, 4 * kGiB);
}

TEST(Sweep, NodeDimensionShrinksRuntime) {
  auto config = small_sweep(SweepDimension::kNodes, {2, 8});
  const auto result = run_sweep(config);
  EXPECT_GT(result.cells[0].job.total_time(), result.cells[2].job.total_time());
}

TEST(Sweep, SeedDimensionPerturbsOnly) {
  const auto result = run_sweep(small_sweep(SweepDimension::kSeed, {1, 2, 3}));
  const double t0 = result.cells[0].job.total_time();
  for (std::size_t i = 2; i < result.cells.size(); i += 2) {
    EXPECT_NEAR(result.cells[i].job.total_time(), t0, 0.35 * t0);
  }
}

TEST(Sweep, DeterministicAcrossRuns) {
  const auto config = small_sweep(SweepDimension::kMapSlots, {2, 3, 4});
  const auto a = run_sweep(config);
  const auto b = run_sweep(config);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].job.total_time(), b.cells[i].job.total_time());
  }
}

TEST(Sweep, CsvHasHeaderAndAllCells) {
  const auto result = run_sweep(small_sweep(SweepDimension::kMapSlots, {2, 4}));
  std::ostringstream out;
  result.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("map-slots,engine,completed,failed,map_time_s"),
            std::string::npos);
  // Every cell here completed without failing: completed=1, failed=0.
  EXPECT_NE(csv.find("2,HadoopV1,1,0,"), std::string::npos);
  EXPECT_NE(csv.find("4,SMapReduce,1,0,"), std::string::npos);
  // Header + 4 cells = 5 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

TEST(Sweep, CsvMarksUnfinishedAndFailedCells) {
  SweepResult result;
  result.dimension = SweepDimension::kSeed;
  SweepCell timed_out;
  timed_out.value = 1.0;
  timed_out.engine = EngineKind::kHadoopV1;
  // finish_time unset: the run hit the time limit.
  SweepCell failed;
  failed.value = 2.0;
  failed.engine = EngineKind::kHadoopV1;
  failed.job.finish_time = 120.0;
  failed.job.failed = true;  // torn down by the fault path
  result.cells = {timed_out, failed};
  std::ostringstream out;
  result.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("1,HadoopV1,0,0,,,,"), std::string::npos);
  EXPECT_NE(csv.find("2,HadoopV1,0,1,,,,"), std::string::npos);
}

TEST(Sweep, ValidationCatchesNonsense) {
  auto config = small_sweep(SweepDimension::kMapSlots, {});
  EXPECT_THROW(run_sweep(config), SmrError);
  config = small_sweep(SweepDimension::kMapSlots, {2.5});
  EXPECT_THROW(run_sweep(config), SmrError);
  config = small_sweep(SweepDimension::kInputGib, {-1.0});
  EXPECT_THROW(run_sweep(config), SmrError);
  config = small_sweep(SweepDimension::kMapSlots, {2});
  config.engines.clear();
  EXPECT_THROW(run_sweep(config), SmrError);
  // Caught on the caller thread: a throw inside a pool task terminates.
  config = small_sweep(SweepDimension::kMapSlots, {2});
  config.base.trials = 0;
  EXPECT_THROW(run_sweep(config), SmrError);
}

}  // namespace
}  // namespace smr::driver
