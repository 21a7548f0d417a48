// The benchmark's workloads.  Each one generates its inputs from the seed
// and drives the smr library through the same public calls the CLIs make:
// mapreduce::Runtime (what driver::run_trial wraps) for the batch
// workloads, serve::ServeSession::replay for serving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smrbench {

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

struct PassOptions {
  std::uint64_t seed = 1;
  /// Threads for independent simulations (paper_suite cells).
  int threads = 1;
  /// Decorate the allocation policy and scheduler for the traced run.
  bool traced = false;
};

/// Outcome of one pass over a workload: host timings plus the simulated
/// results, which must repeat bit for bit for a fixed seed.
struct PassResult {
  /// FNV-1a over every simulated per-job result and makespan.
  std::uint64_t digest = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  /// Admitted jobs still unfinished when the run ended (must be 0).
  std::uint64_t unfinished = 0;

  double run_s = 0.0;    // wall seconds of the whole pass
  double setup_s = 0.0;  // wall seconds in the set-up calls (summed over cells)
  /// Wall seconds of each independent simulation (set-up + run + sinks),
  /// and how many threads ran them.
  std::vector<double> cell_s;
  int threads = 1;

  double sim_makespan_s = 0.0;
  double sim_p99_sojourn_s = 0.0;
  double sim_goodput_jobs_per_h = 0.0;

  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  /// Peak resident memory during the pass (set by the caller).
  double peak_rss_mb = 0.0;
  /// Bytes the report, metrics and alert sinks wrote (serve_mix).
  std::uint64_t sink_bytes = 0;
};

/// Run one pass.  Throws smr::SmrError on an unknown workload.
PassResult run_pass(const std::string& workload, const PassOptions& options);

/// Digest of the inputs generated for (workload, seed), without running
/// anything; the same seed must give the same digest.
std::uint64_t input_digest(const std::string& workload, std::uint64_t seed);

/// Tiny decorated-vs-plain runs over every registered allocation policy
/// and a serving session: TracedPolicy/TracedScheduler must forward every
/// virtual, so the outputs must match.  Returns the mismatches found.
std::vector<std::string> decorator_selftest();

}  // namespace smrbench
