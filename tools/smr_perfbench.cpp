// smr_perfbench — simulator performance harness (no google-benchmark).
//
//   smr_perfbench                 # full suite: fig3 + sweep + bigcluster
//   smr_perfbench --smoke         # seconds-long CI smoke subset
//   smr_perfbench --out=BENCH_9.json
//
// Each entry runs real simulations through the driver and reports
// wall-clock, engine events dispatched, events/sec, and the incremental
// max-min solver's call/full-solve counters (full < calls means the
// solver cache is doing its job).  The bigcluster entry times one
// two-job terasort batch on a 2 000-node cluster (256 nodes in smoke
// mode).  Results go to stdout as a table and to --out as JSON-lines, one
// {"type":"bench",...} object per entry plus one {"type":"meta",...}
// header (threads and host_cores record the pool the trial- and
// cell-parallel entries ran on).  All numbers are fixed-precision
// decimals — no scientific notation, so downstream diff tools can parse
// them naively.  See docs/PERF.md.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <string>
#include <thread>
#include <vector>

#include "smr/alloc/registry.hpp"
#include "smr/cluster/node.hpp"
#include "smr/common/flags.hpp"
#include "smr/common/thread_pool.hpp"
#include "smr/driver/sweep.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/obs/self_profile.hpp"
#include "smr/obs/span_log.hpp"
#include "smr/workload/puma.hpp"

using namespace smr;

namespace {

struct BenchResult {
  std::string name;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t solver_full_solves = 0;

  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
  /// Fraction of solver calls answered from the incremental cache.
  double solver_hit_rate() const {
    return solver_calls > 0
               ? 1.0 - static_cast<double>(solver_full_solves) /
                           static_cast<double>(solver_calls)
               : 0.0;
  }
};

/// Run one single-job experiment per (benchmark, engine) pair, timed as a
/// single entry — the smr_perfbench equivalent of bench_fig3_benchmarks.
BenchResult run_fig3(bool smoke) {
  const std::vector<workload::Puma> benches =
      smoke ? std::vector<workload::Puma>{workload::Puma::kGrep,
                                          workload::Puma::kTerasort}
            : workload::fig3_benchmarks();
  const Bytes input = (smoke ? 4 : 30) * kGiB;
  BenchResult result;
  result.name = smoke ? "fig3_smoke" : "fig3";
  obs::Stopwatch stopwatch;
  for (workload::Puma bench : benches) {
    for (driver::EngineKind engine : driver::all_engines()) {
      driver::ExperimentConfig config = driver::ExperimentConfig::paper_default(engine);
      config.trials = smoke ? 1 : 2;
      const metrics::RunResult run =
          driver::run_single_job(config, workload::make_puma_job(bench, input));
      result.events += run.engine_events;
      result.solver_calls += run.solver_calls;
      result.solver_full_solves += run.solver_full_solves;
    }
  }
  result.wall_seconds = stopwatch.seconds();
  return result;
}

/// Terasort map-slots sweep across all engines — the smr_sweep workload
/// (16 values in the full suite, 4 in smoke mode).
BenchResult run_sweep_bench(bool smoke) {
  driver::SweepConfig config;
  config.dimension = driver::SweepDimension::kMapSlots;
  const int points = smoke ? 4 : 16;
  for (int v = 1; v <= points; ++v) config.values.push_back(v);
  config.spec =
      workload::make_puma_job(workload::Puma::kTerasort, (smoke ? 4 : 30) * kGiB);
  config.base = driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  config.base.trials = smoke ? 1 : 2;

  BenchResult result;
  result.name = smoke ? "sweep4_smoke" : "sweep16";
  obs::Stopwatch stopwatch;
  const driver::SweepResult sweep = driver::run_sweep(config);
  result.wall_seconds = stopwatch.seconds();
  result.events = sweep.total_engine_events();
  result.solver_calls = sweep.total_solver_calls();
  result.solver_full_solves = sweep.total_solver_full_solves();
  return result;
}

/// Span-recording overhead: the same terasort run with and without a
/// SpanLog attached.  The spans_off/spans_on pair quantifies the cost of
/// the causal span tree; the two runs must agree on makespan (recording is
/// purely observational) or the bench aborts.
std::vector<BenchResult> run_span_overhead(bool smoke) {
  driver::ExperimentConfig config =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
  const mapreduce::JobSpec spec = workload::make_puma_job(
      workload::Puma::kTerasort, (smoke ? 4 : 30) * kGiB);
  const int reps = smoke ? 1 : 3;

  std::vector<BenchResult> results;
  double makespans[2] = {0.0, 0.0};
  for (int with_spans = 0; with_spans < 2; ++with_spans) {
    BenchResult result;
    result.name = with_spans != 0 ? "spans_on" : "spans_off";
    obs::Stopwatch stopwatch;
    for (int rep = 0; rep < reps; ++rep) {
      obs::SpanLog spans;
      mapreduce::Runtime runtime(config.runtime, driver::make_policy(config),
                                 driver::make_scheduler(config));
      if (with_spans != 0) runtime.set_spans(&spans);
      runtime.submit(spec, 0.0);
      const metrics::RunResult run = runtime.run();
      makespans[with_spans] = run.makespan;
      result.events += run.engine_events;
      result.solver_calls += run.solver_calls;
      result.solver_full_solves += run.solver_full_solves;
    }
    result.wall_seconds = stopwatch.seconds();
    results.push_back(result);
  }
  if (makespans[0] != makespans[1]) {
    std::fprintf(stderr,
                 "smr_perfbench: span recording perturbed the simulation "
                 "(makespan %f != %f)\n",
                 makespans[0], makespans[1]);
    std::exit(1);
  }
  return results;
}

/// Allocator-arena overhead: the same terasort run under HadoopV1 and under
/// Karma.  With a single tenant the credit caps never bind, so Karma must
/// reproduce HadoopV1's makespan exactly while the wall-clock delta shows
/// the bookkeeping cost.
std::vector<BenchResult> run_alloc_overhead(bool smoke) {
  const mapreduce::JobSpec spec = workload::make_puma_job(
      workload::Puma::kTerasort, (smoke ? 4 : 30) * kGiB);
  const int reps = smoke ? 1 : 3;

  auto run_one = [&](const driver::ExperimentConfig& config, const char* name,
                     double& makespan) {
    BenchResult result;
    result.name = name;
    obs::Stopwatch stopwatch;
    for (int rep = 0; rep < reps; ++rep) {
      mapreduce::Runtime runtime(config.runtime, driver::make_policy(config),
                                 driver::make_scheduler(config));
      runtime.submit(spec, 0.0);
      const metrics::RunResult run = runtime.run();
      makespan = run.makespan;
      result.events += run.engine_events;
      result.solver_calls += run.solver_calls;
      result.solver_full_solves += run.solver_full_solves;
    }
    result.wall_seconds = stopwatch.seconds();
    return result;
  };

  std::vector<BenchResult> results;
  driver::ExperimentConfig base =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
  double hadoop_makespan = 0.0;
  double karma_makespan = 0.0;
  results.push_back(run_one(base, "alloc_hadoopv1", hadoop_makespan));
  base.policy = alloc::parse_policy_spec("karma");
  results.push_back(run_one(base, "alloc_karma", karma_makespan));
  if (hadoop_makespan != karma_makespan) {
    std::fprintf(stderr,
                 "smr_perfbench: Karma broke the single-tenant identity "
                 "(makespan %f != HadoopV1's %f)\n",
                 karma_makespan, hadoop_makespan);
    std::exit(1);
  }
  return results;
}

/// A two-staggered-job terasort batch on a large cluster, one serial run.
BenchResult run_bigcluster(bool smoke) {
  driver::ExperimentConfig config =
      driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
  config.trials = 1;
  config.runtime.cluster = cluster::ClusterSpec::paper_testbed(smoke ? 256 : 2000);
  const Bytes input = (smoke ? 24 : 512) * kGiB;
  std::vector<driver::JobSubmission> jobs;
  for (int j = 0; j < 2; ++j) {
    jobs.push_back({workload::make_puma_job(workload::Puma::kTerasort, input),
                    30.0 * j});
  }

  BenchResult result;
  result.name = smoke ? "bigcluster_smoke" : "bigcluster";
  obs::Stopwatch stopwatch;
  const metrics::RunResult run = driver::run_trial(config, jobs, 1);
  result.wall_seconds = stopwatch.seconds();
  result.events = run.engine_events;
  result.solver_calls = run.solver_calls;
  result.solver_full_solves = run.solver_full_solves;
  return result;
}

void write_json(const std::string& path, const std::vector<BenchResult>& results,
                bool smoke) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "smr_perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // Fixed-precision throughout: the default ostream format renders large
  // rates in scientific notation (1.41937e+06), which naive downstream
  // parsers read as 1.41937.
  out << std::fixed;
  out << "{\"type\":\"meta\",\"tool\":\"smr_perfbench\",\"mode\":\""
      << (smoke ? "smoke" : "full")
      << "\",\"threads\":" << default_thread_pool().thread_count()
      << ",\"host_cores\":" << std::thread::hardware_concurrency() << "}\n";
  for (const BenchResult& r : results) {
    out << "{\"type\":\"bench\",\"name\":\"" << r.name
        << "\",\"wall_seconds\":" << std::setprecision(6) << r.wall_seconds
        << ",\"events\":" << r.events
        << ",\"events_per_sec\":" << std::setprecision(1) << r.events_per_sec()
        << ",\"solver_calls\":" << r.solver_calls
        << ",\"solver_full_solves\":" << r.solver_full_solves
        << ",\"solver_cache_hit_rate\":" << std::setprecision(6)
        << r.solver_hit_rate() << "}\n";
  }
  std::printf("\nperf json written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Time the simulator's figure workloads and report engine/solver rates.");
  flags.define_bool("smoke", false, "run the seconds-long CI subset");
  flags.define_string("out", "BENCH_9.json", "JSON-lines output path ('' to skip)");
  flags.define_bool("help", false, "print this help");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "smr_perfbench: %s\n\n%s", flags.error().c_str(),
                 flags.usage("smr_perfbench").c_str());
    return 1;
  }
  if (flags.get_bool("help")) {
    std::fputs(flags.usage("smr_perfbench").c_str(), stdout);
    return 0;
  }

  const bool smoke = flags.get_bool("smoke");
  std::vector<BenchResult> results;
  results.push_back(run_fig3(smoke));
  results.push_back(run_sweep_bench(smoke));
  for (BenchResult& r : run_span_overhead(smoke)) results.push_back(std::move(r));
  for (BenchResult& r : run_alloc_overhead(smoke)) results.push_back(std::move(r));
  results.push_back(run_bigcluster(smoke));

  std::printf("%-16s %12s %14s %14s %14s %14s %10s\n", "bench", "wall_s",
              "events", "events/s", "solver_calls", "full_solves", "hit_rate");
  for (const BenchResult& r : results) {
    std::printf("%-16s %12.3f %14" PRIu64 " %14.0f %14" PRIu64 " %14" PRIu64
                " %9.1f%%\n",
                r.name.c_str(), r.wall_seconds, r.events, r.events_per_sec(),
                r.solver_calls, r.solver_full_solves, 100.0 * r.solver_hit_rate());
  }

  if (const std::string path = flags.get_string("out"); !path.empty()) {
    write_json(path, results, smoke);
  }
  return 0;
}
