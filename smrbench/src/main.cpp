// smrbench — the repository benchmark binary (run.py builds and runs it).
//
//   smrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <path>]
//   smrbench --inputs --workload <name> --seed <n>   # input digest only
//   smrbench --selftest                              # decorator forwarding
//
// With --trace 0 it repeats untraced passes of the workload for --seconds
// and reports the end-to-end metrics (medians over passes).  With --trace 1
// it alternates untraced and traced passes and reports the per-layer
// metrics; on paper_suite it also runs one single-threaded pass.  Parallel
// passes use one thread per hardware thread.  Every
// pass's simulated results must be bitwise equal, whatever the tracing and
// thread count; every offered job must end completed, failed or shed.  The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  Exit status 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "smr/common/error.hpp"
#include "smr/common/stats.hpp"
#include "smr/obs/self_profile.hpp"
#include "workloads.hpp"

using namespace smrbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int threads = 1;
  std::string trace_out;
  bool inputs = false;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "smrbench: %s\nusage: smrbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n"
               "       smrbench --inputs --workload <name> --seed <n>\n"
               "       smrbench --selftest\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--inputs") {
      args.inputs = true;
      continue;
    }
    if (key == "--selftest") {
      args.selftest = true;
      continue;
    }
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (args.selftest) return args;
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == args.workload;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  args.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return args;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double median(std::vector<double> values) { return smr::percentile(std::move(values), 50.0); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> layer_metrics(const std::string& workload, const TraceTotals& t,
                                  const PassResult& pass) {
  const Counters& c = t.counters;
  const LayerTotals& net = t[Layer::kNetwork];
  const LayerTotals& compute = t[Layer::kCompute];
  const LayerTotals& sched = t[Layer::kScheduler];
  const double cell_total = sum(pass.cell_s);
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  return {
      {"network.calls", "count", count(net.calls)},
      {"network.busy_s", "s", net.busy_s},
      {"network.build_s", "s", net.self_s},
      {"network.solve_s", "s", t[Layer::kNetworkSolve].busy_s},
      {"network.full_solves", "count", count(c.network_full_solves)},
      {"network.hit_ratio", "ratio",
       1.0 - ratio(count(c.network_full_solves), count(c.network_solver_calls))},
      {"network.flows_per_call", "count", ratio(count(c.network_flows), count(net.calls))},
      {"network.uses_per_call", "count", ratio(count(c.network_uses), count(net.calls))},
      {"network.run_share", "ratio", ratio(net.busy_s, cell_total)},
      {"compute.calls", "count", count(compute.calls)},
      {"compute.busy_s", "s", compute.busy_s},
      {"compute.full_solves", "count", count(c.compute_full_solves)},
      {"compute.hit_ratio", "ratio",
       1.0 - ratio(count(c.compute_full_solves), count(c.compute_solver_calls))},
      {"compute.loads_per_call", "count", ratio(count(c.compute_loads), count(compute.calls))},
      {"compute.run_share", "ratio", ratio(compute.busy_s, cell_total)},
      {"runtime.self_s", "s", t[Layer::kRuntime].self_s},
      {"sim.events", "count", count(pass.events)},
      {"sim.peak_pending", "count", count(pass.peak_pending)},
      {"policy.heartbeat_calls", "count", count(t[Layer::kPolicyHeartbeat].calls)},
      {"policy.heartbeat_s", "s", t[Layer::kPolicyHeartbeat].busy_s},
      {"policy.period_calls", "count", count(t[Layer::kPolicyPeriod].calls)},
      {"policy.period_s", "s", t[Layer::kPolicyPeriod].busy_s},
      {"scheduler.calls", "count", count(sched.calls)},
      {"scheduler.busy_s", "s", sched.busy_s},
      {"scheduler.jobs_per_call", "count", ratio(count(c.scheduler_jobs), count(sched.calls))},
      {"serve.busy_s", "s", t[Layer::kServe].busy_s},
      {"serve.jobs_completed", "count", workload == "serve_mix" ? count(pass.completed) : 0.0},
      {"serve.jobs_shed", "count", count(pass.shed)},
      {"obs.calls", "count", count(t[Layer::kObs].calls)},
      {"obs.busy_s", "s", t[Layer::kObs].busy_s},
      {"obs.bytes_written", "bytes", count(pass.sink_bytes)},
      {"driver.cells", "count", count(pass.cell_s.size())},
      {"driver.cell_s_p50", "s", median(pass.cell_s)},
      {"driver.cell_s_max", "s", smr::percentile(pass.cell_s, 100.0)},
      {"driver.parallel_eff", "ratio", ratio(cell_total, pass.run_s * pass.threads)},
      {"setup.dfs_s", "s", t[Layer::kDfs].busy_s},
      {"setup.blocks", "count", count(c.dfs_blocks)},
  };
}

/// Element-wise median of several passes' metric lists (same names, order).
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& passes) {
  std::vector<Metric> out = passes.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(pass[m].value);
    out[m].value = median(values);
  }
  return out;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void write_trace_file(const Args& args, const std::vector<TraceTotals>& traced,
                      const std::vector<Metric>& metrics) {
  std::ofstream out(args.trace_out);
  if (!out) {
    std::fprintf(stderr, "smrbench: cannot write %s\n", args.trace_out.c_str());
    return;
  }
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"threads\":" << args.threads << ",\"passes\":[";
  for (std::size_t p = 0; p < traced.size(); ++p) {
    out << (p ? "," : "") << "{";
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      const LayerTotals& layer = traced[p][static_cast<Layer>(l)];
      out << (l ? "," : "") << "\"" << layer_name(static_cast<Layer>(l))
          << "\":{\"calls\":" << layer.calls << ",\"busy_s\":" << json_number(layer.busy_s)
          << ",\"self_s\":" << json_number(layer.self_s) << "}";
    }
    out << "}";
  }
  out << "],\"metrics\":{";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    out << (m ? "," : "") << "\"" << metrics[m].name << "\":" << json_number(metrics[m].value);
  }
  out << "}}\n";
}

struct Checks {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference = 0;
  bool have_reference = false;

  void fail(const std::string& message) {
    std::fprintf(stderr, "smrbench: CHECK FAILED: %s\n", message.c_str());
    ok = false;
  }

  /// Every pass must reproduce the first pass's simulated results, and
  /// account for every offered job.
  void pass(const PassResult& p, const char* label) {
    attempted += p.offered;
    failed += p.failed + p.shed;
    if (!have_reference) {
      reference = p.digest;
      have_reference = true;
    } else if (p.digest != reference) {
      fail(std::string(label) + " pass changed the simulated results (digest " +
           std::to_string(p.digest) + " != " + std::to_string(reference) + ")");
    }
    if (p.completed + p.failed + p.shed != p.offered || p.unfinished != 0) {
      fail(std::string(label) + " pass lost jobs: offered " + std::to_string(p.offered) +
           ", completed " + std::to_string(p.completed) + ", failed " +
           std::to_string(p.failed) + ", shed " + std::to_string(p.shed) + ", unfinished " +
           std::to_string(p.unfinished));
    }
    for (double v : {p.sim_makespan_s, p.sim_p99_sojourn_s, p.sim_goodput_jobs_per_h}) {
      if (!std::isfinite(v) || v <= 0.0) {
        fail(std::string(label) + " pass produced a non-positive simulated metric");
        break;
      }
    }
  }
};

/// Hand freed heap back to the kernel, then restart the resident-set
/// high-water mark (Linux: VmHWM), so that peak_rss_mb() covers one pass
/// from the same baseline whatever earlier passes left behind.  Where the
/// mark cannot be reset it stays the process-lifetime peak, which is still
/// a peak of this workload.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int run(const Args& args) {
  Checks checks;
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  std::vector<TraceTotals> traced_totals;
  std::vector<std::vector<Metric>> traced_metrics;
  PassOptions options;
  options.seed = args.seed;
  options.threads = args.threads;

  const smr::obs::Stopwatch clock;
  if (args.trace == 1 && args.workload == "paper_suite") {
    PassOptions single = options;
    single.threads = 1;
    checks.pass(run_pass(args.workload, single), "single-threaded");
  }
  while (plain.empty() || (args.trace == 1 && traced.empty()) || clock.seconds() < args.seconds) {
    const bool trace_this = args.trace == 1 && traced.size() < plain.size();
    options.traced = trace_this;
    set_tracing(trace_this);
    reset_peak_rss();
    PassResult pass = run_pass(args.workload, options);
    pass.peak_rss_mb = peak_rss_mb();
    set_tracing(false);
    if (trace_this) {
      checks.pass(pass, "traced");
      traced_totals.push_back(collect_totals());
      traced_metrics.push_back(
          layer_metrics(args.workload, traced_totals.back(), pass));
      traced.push_back(std::move(pass));
    } else {
      checks.pass(pass, "untraced");
      plain.push_back(std::move(pass));
    }
  }

  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  for (const PassResult& p : plain) {
    run_s.push_back(p.run_s);
    setup_s.push_back(p.setup_s);
    rss_mb.push_back(p.peak_rss_mb);
  }
  const PassResult& first = plain.front();
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"run_s", "s", median(run_s)},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MB", median(rss_mb)},
        {"sim_makespan_s", "s", first.sim_makespan_s},
        {"sim_p99_sojourn_s", "s", first.sim_p99_sojourn_s},
        {"sim_goodput_jobs_per_h", "jobs/h", first.sim_goodput_jobs_per_h},
        {"completed_frac", "ratio",
         static_cast<double>(first.completed) / static_cast<double>(first.offered)},
    };
  } else {
    std::vector<double> traced_run_s;
    for (const PassResult& p : traced) traced_run_s.push_back(p.run_s);
    metrics = median_metrics(traced_metrics);
    metrics.push_back({"trace.overhead_frac", "ratio", median(traced_run_s) / median(run_s) - 1.0});
    if (!args.trace_out.empty()) write_trace_file(args, traced_totals, metrics);
  }

  std::printf("workload=%s seed=%llu threads=%d trace=%d passes=%zu+%zu digest=%016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.threads,
              args.trace, plain.size(), traced.size(),
              static_cast<unsigned long long>(checks.reference));
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (checks.ok ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted) +
                     ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    json += (m ? ", " : "") + ("\"" + metrics[m].name + "\": {\"value\": ") +
            json_number(metrics[m].value) + ", \"unit\": \"" + metrics[m].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.selftest) {
      const std::vector<std::string> mismatches = decorator_selftest();
      for (const std::string& m : mismatches) {
        std::printf("decorated run differs from plain run: %s\n", m.c_str());
      }
      std::printf("selftest %s\n", mismatches.empty() ? "ok" : "FAILED");
      return mismatches.empty() ? 0 : 1;
    }
    if (args.inputs) {
      std::printf("%016llx\n",
                  static_cast<unsigned long long>(input_digest(args.workload, args.seed)));
      return 0;
    }
    return run(args);
  } catch (const smr::SmrError& e) {
    std::fprintf(stderr, "smrbench: %s\n", e.what());
    return 1;
  }
}
