#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <type_traits>

#include "layers.hpp"
#include "smr/alloc/registry.hpp"
#include "smr/common/error.hpp"
#include "smr/common/rng.hpp"
#include "smr/common/stats.hpp"
#include "smr/common/thread_pool.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/self_profile.hpp"
#include "smr/serve/session.hpp"
#include "smr/workload/puma.hpp"
#include "smr/workload/synthetic.hpp"

namespace smrbench {

namespace {

using namespace smr;

// --- digests ----------------------------------------------------------------

class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 1099511628211ULL;
  }
  void add(const std::string& text) {
    add(text.size());
    for (char c : text) add(c);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

void add_run(Fnv& fnv, const metrics::RunResult& run) {
  fnv.add(run.makespan);
  fnv.add(run.completed);
  fnv.add(run.engine_events);
  for (const metrics::JobResult& job : run.jobs) {
    fnv.add(job.id);
    fnv.add(job.name);
    fnv.add(job.input_size);
    fnv.add(job.shuffle_volume);
    fnv.add(job.submit_time);
    fnv.add(job.start_time);
    fnv.add(job.maps_done_time);
    fnv.add(job.finish_time);
    fnv.add(job.deadline);
    fnv.add(job.failed);
  }
}

void add_spec(Fnv& fnv, const mapreduce::JobSpec& spec) {
  fnv.add(spec.name);
  fnv.add(spec.tenant);
  fnv.add(spec.input_size);
  fnv.add(spec.reduce_tasks);
  fnv.add(spec.relative_deadline);
}

// --- batch workloads ----------------------------------------------------------

/// One independent simulation: a config, its jobs and its runtime seed.
struct Cell {
  driver::ExperimentConfig config;
  std::vector<driver::JobSubmission> jobs;
  std::uint64_t seed = 1;
};

struct CellOutcome {
  metrics::RunResult result;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t peak_pending = 0;
};

/// What driver::run_trial does, with the set-up calls (policy and runtime
/// construction, job submission with its DFS block placement) timed apart
/// from the simulation.
CellOutcome run_cell(const Cell& cell, bool traced) {
  CellOutcome out;
  const obs::Stopwatch wall;
  mapreduce::RuntimeConfig runtime_config = cell.config.runtime;
  runtime_config.seed = cell.seed;
  std::unique_ptr<mapreduce::AllocationPolicy> policy = driver::make_policy(cell.config);
  if (traced) policy = std::make_unique<TracedPolicy>(std::move(policy));
  // make_scheduler is wrapped at link time: it returns a TracedScheduler
  // whenever tracing is on.
  mapreduce::Runtime runtime(runtime_config, std::move(policy),
                             driver::make_scheduler(cell.config));
  for (const driver::JobSubmission& job : cell.jobs) runtime.submit(job.spec, job.submit_at);
  out.setup_s = wall.seconds();
  out.result = runtime.run();
  out.peak_pending = runtime.engine().peak_pending();
  out.wall_s = wall.seconds();
  return out;
}

// bigcluster_paper: two staggered terasort jobs on a few hundred paper-testbed
// nodes with the paper's reducer rule (99 % of the cluster's reduce slots).
// The second job's start offset sets how long the two shuffles overlap, and
// the host cost of one simulation falls about fourfold as the offset goes
// from 15 s to 45 s.  So a pass runs several simulations, one after another,
// with offsets spread evenly over that range; the seed picks each
// simulation's runtime seed (block placement and task jitter).  Every seed
// thus covers the same range of overlap, and the spread across seeds stays
// small.
constexpr int kBigclusterNodes = 256;
constexpr Bytes kBigclusterInput = 64 * kGiB;
constexpr int kBigclusterSims = 5;

std::vector<Cell> bigcluster_cells(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Cell> cells;
  for (int s = 0; s < kBigclusterSims; ++s) {
    Cell cell;
    cell.config = driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
    cell.config.runtime.cluster = cluster::ClusterSpec::paper_testbed(kBigclusterNodes);
    const int reducers = workload::recommended_reduce_tasks(
        kBigclusterNodes, cell.config.runtime.initial_reduce_slots);
    const SimTime stagger = 15.0 + 30.0 * (s + 0.5) / static_cast<double>(kBigclusterSims);
    for (int j = 0; j < 2; ++j) {
      mapreduce::JobSpec spec =
          workload::make_puma_job(workload::Puma::kTerasort, kBigclusterInput);
      spec.name = "terasort-" + std::to_string(j);
      spec.reduce_tasks = reducers;
      cell.jobs.push_back({spec, stagger * j});
    }
    cell.seed = rng.next();
    cells.push_back(std::move(cell));
  }
  return cells;
}

// paper_suite: the paper's 16-node testbed, every fig3 PUMA benchmark under
// each engine, at several input sizes and runtime seeds.
constexpr Bytes kSuiteInputs[] = {10 * kGiB, 20 * kGiB, 30 * kGiB};
constexpr int kSuiteSeeds = 3;

std::vector<Cell> suite_cells(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kSuiteSeeds; ++i) seeds.push_back(rng.next());
  std::vector<Cell> cells;
  for (workload::Puma bench : workload::fig3_benchmarks()) {
    for (driver::EngineKind engine : driver::all_engines()) {
      for (Bytes input : kSuiteInputs) {
        for (std::uint64_t cell_seed : seeds) {
          Cell cell;
          cell.config = driver::ExperimentConfig::paper_default(engine);
          cell.jobs.push_back({workload::make_puma_job(bench, input), 0.0});
          cell.seed = cell_seed;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

std::vector<Cell> batch_cells(const std::string& workload, std::uint64_t seed) {
  return workload == "bigcluster_paper" ? bigcluster_cells(seed) : suite_cells(seed);
}

PassResult batch_pass(const std::string& workload, const PassOptions& options) {
  PassResult pass;
  const obs::Stopwatch wall;
  const std::vector<Cell> cells = batch_cells(workload, options.seed);
  const double generate_s = wall.seconds();

  std::vector<CellOutcome> outcomes(cells.size());
  if (workload == "paper_suite" && options.threads > 1) {
    pass.threads = options.threads;
    ThreadPool pool(static_cast<std::size_t>(options.threads));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      pool.submit([&, i] { outcomes[i] = run_cell(cells[i], options.traced); });
    }
    pool.wait_idle();
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      outcomes[i] = run_cell(cells[i], options.traced);
    }
  }
  pass.run_s = wall.seconds();

  Fnv fnv;
  std::vector<double> sojourns;
  pass.setup_s = generate_s;
  for (const CellOutcome& out : outcomes) {
    add_run(fnv, out.result);
    pass.setup_s += out.setup_s;
    pass.cell_s.push_back(out.wall_s);
    pass.sim_makespan_s += out.result.makespan;
    pass.events += out.result.engine_events;
    pass.peak_pending = std::max(pass.peak_pending, out.peak_pending);
    for (const metrics::JobResult& job : out.result.jobs) {
      ++pass.offered;
      if (job.failed) {
        ++pass.failed;
      } else if (job.finished()) {
        ++pass.completed;
        sojourns.push_back(job.execution_time());
      } else {
        ++pass.unfinished;
      }
    }
  }
  pass.digest = fnv.value();
  pass.sim_p99_sojourn_s = percentile(sojourns, 99.0);
  pass.sim_goodput_jobs_per_h =
      static_cast<double>(pass.completed) / (pass.sim_makespan_s / 3600.0);
  return pass;
}

// --- serve_mix ----------------------------------------------------------------

// Three tenants sending open-loop Poisson arrivals (simulated time) to one
// 16-node cluster for four simulated days: EDF over SLO deadlines, shed
// admission, the GameCapacity allocator.
constexpr int kServeNodes = 16;
constexpr SimTime kServeHorizon = 96.0 * 3600.0;
constexpr SimTime kServeWarmup = 2.0 * 3600.0;
constexpr SimTime kServeDrain = 6.0 * 3600.0;
constexpr std::uint64_t kArrivalSeedDomain = 0xa11a5eedULL;

struct TenantMix {
  const char* name;
  double jobs_per_hour;
  double min_gib;
  double max_gib;
  std::vector<workload::Puma> benchmarks;
  double base_deadline_s;
  double per_gib_s;
};

const std::vector<TenantMix>& serve_tenants() {
  using workload::Puma;
  static const std::vector<TenantMix> tenants = {
      {"interactive", 27.0, 1.0, 3.0,
       {Puma::kGrep, Puma::kWordCount, Puma::kHistogramMovies, Puma::kClassification},
       300.0, 60.0},
      {"etl", 18.0, 3.0, 8.0,
       {Puma::kTerasort, Puma::kInvertedIndex, Puma::kSelfJoin, Puma::kSequenceCount},
       900.0, 120.0},
      {"analytics", 9.0, 1.5, 5.0, workload::all_puma_benchmarks(), 600.0, 90.0},
  };
  return tenants;
}

/// The arrival stream.  Each tenant's arrivals are a Poisson process over
/// [0, horizon) conditioned on its expected count: the count is fixed and
/// the instants are independent uniform draws.  Job shapes are stratified:
/// sizes sit at jittered, evenly spaced quantiles of the tenant's
/// log-uniform size range and benchmarks cycle through its list, and the
/// seed shuffles which shape arrives when.  Every seed thus offers the same
/// mix of work in a different order and at different instants, so the
/// measured spread across seeds comes from scheduling, not from one seed
/// drawing more or bigger jobs than another.
serve::ArrivalTrace serve_arrivals(std::uint64_t seed) {
  Rng rng(seed ^ kArrivalSeedDomain);
  serve::ArrivalTrace trace;
  const int reducers = workload::recommended_reduce_tasks(kServeNodes, 2);
  for (std::size_t t = 0; t < serve_tenants().size(); ++t) {
    const TenantMix& mix = serve_tenants()[t];
    trace.tenants.push_back(mix.name);
    const auto n = static_cast<std::size_t>(
        std::llround(mix.jobs_per_hour * kServeHorizon / 3600.0));
    std::vector<SimTime> times(n);
    for (SimTime& at : times) at = rng.uniform(0.0, kServeHorizon);
    std::sort(times.begin(), times.end());
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    const double log_min = std::log(mix.min_gib);
    const double log_max = std::log(mix.max_gib);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t shape = order[i];
      const double quantile = (static_cast<double>(shape) + rng.uniform()) /
                              static_cast<double>(n);
      const double gib = std::exp(log_min + quantile * (log_max - log_min));
      serve::Arrival arrival;
      arrival.tenant = static_cast<int>(t);
      arrival.job.submit_at = times[i];
      arrival.job.spec = workload::make_puma_job(
          mix.benchmarks[shape % mix.benchmarks.size()],
          static_cast<Bytes>(gib * static_cast<double>(kGiB)));
      arrival.job.spec.reduce_tasks = reducers;
      arrival.job.spec.slo_class = "default";
      arrival.job.spec.relative_deadline = mix.base_deadline_s + mix.per_gib_s * gib;
      trace.arrivals.push_back(std::move(arrival));
    }
  }
  std::sort(trace.arrivals.begin(), trace.arrivals.end(),
            [](const serve::Arrival& a, const serve::Arrival& b) {
              return a.job.submit_at != b.job.submit_at ? a.job.submit_at < b.job.submit_at
                                                        : a.tenant < b.tenant;
            });
  return trace;
}

serve::ServeConfig serve_config(std::uint64_t seed, bool traced) {
  serve::ServeConfig config;
  config.experiment = driver::ExperimentConfig::paper_default(driver::EngineKind::kSMapReduce);
  config.experiment.runtime.cluster = cluster::ClusterSpec::paper_testbed(kServeNodes);
  config.experiment.scheduler = driver::SchedulerKind::kDeadline;
  config.experiment.policy =
      alloc::parse_policy_spec(traced ? register_traced_policy("gamecapacity") : "gamecapacity");
  config.admission.policy = serve::AdmissionPolicy::kShed;
  config.admission.max_in_system = 16;
  config.horizon = kServeHorizon;
  config.warmup = kServeWarmup;
  config.drain_limit = kServeDrain;
  config.seed = seed;
  return config;
}

PassResult serve_pass(const PassOptions& options) {
  PassResult pass;
  const obs::Stopwatch wall;
  const serve::ServeConfig config = serve_config(options.seed, options.traced);
  serve::ArrivalTrace trace = serve_arrivals(options.seed);
  pass.offered = trace.arrivals.size();
  serve::ServeSession session(config);
  pass.setup_s = wall.seconds();

  obs::MetricsRegistry registry;
  const serve::ServeReport report = session.replay(std::move(trace), &registry);
  {
    // The sinks smr_serve users turn on: report, metrics and alerts.
    Span span(Layer::kObs);
    std::ostringstream sink;
    report.write_json(sink);
    registry.write_jsonl(sink);
    session.write_burn_alerts_jsonl(sink);
    pass.sink_bytes = static_cast<std::uint64_t>(sink.tellp());
  }
  pass.run_s = wall.seconds();
  pass.cell_s.push_back(pass.run_s);

  const metrics::RunResult& run = session.run_result();
  Fnv fnv;
  add_run(fnv, run);
  pass.digest = fnv.value();
  for (const metrics::JobResult& job : run.jobs) {
    if (job.failed) {
      ++pass.failed;
    } else if (job.finished()) {
      ++pass.completed;
    } else {
      ++pass.unfinished;
    }
  }
  pass.shed = pass.offered - run.jobs.size();
  pass.sim_makespan_s = report.makespan;
  pass.sim_p99_sojourn_s = report.aggregate.latency.p99;
  pass.sim_goodput_jobs_per_h = report.aggregate.goodput_per_hour;
  pass.events = run.engine_events;
  // runtime() is const only to keep callers from driving the finished run;
  // reading the engine's high-water mark does not modify it.
  pass.peak_pending = const_cast<mapreduce::Runtime*>(session.runtime())->engine().peak_pending();
  return pass;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bigcluster_paper", "paper_suite",
                                                 "serve_mix"};
  return names;
}

PassResult run_pass(const std::string& workload, const PassOptions& options) {
  if (workload == "serve_mix") return serve_pass(options);
  if (workload == "bigcluster_paper" || workload == "paper_suite") {
    return batch_pass(workload, options);
  }
  throw SmrError("unknown workload '" + workload + "'");
}

std::uint64_t input_digest(const std::string& workload, std::uint64_t seed) {
  Fnv fnv;
  if (workload == "serve_mix") {
    std::ostringstream csv;
    serve::write_arrivals_csv(serve_arrivals(seed), csv);
    fnv.add(csv.str());
    return fnv.value();
  }
  if (workload != "bigcluster_paper" && workload != "paper_suite") {
    throw SmrError("unknown workload '" + workload + "'");
  }
  for (const Cell& cell : batch_cells(workload, seed)) {
    fnv.add(cell.seed);
    fnv.add(cell.config.engine);
    fnv.add(cell.config.runtime.cluster.worker_count());
    for (const driver::JobSubmission& job : cell.jobs) {
      add_spec(fnv, job.spec);
      fnv.add(job.submit_at);
    }
  }
  return fnv.value();
}

std::vector<std::string> decorator_selftest() {
  std::vector<std::string> mismatches;

  // Batch: a small multi-tenant mix under every registered policy, plain
  // and with both decorators.  Multi-tenant policies only behave the same if
  // wants_job_stats() and job_task_caps() are forwarded, SMapReduce only if
  // the heartbeat/period callbacks are.
  workload::SyntheticMixConfig mix;
  mix.jobs = 5;
  mix.mean_interarrival = 20.0;
  mix.min_input = 1 * kGiB;
  mix.max_input = 4 * kGiB;
  mix.reduce_tasks = 6;
  mix.seed = 7;
  std::vector<driver::JobSubmission> jobs;
  for (const workload::TimedJob& timed : workload::make_synthetic_mix(mix)) {
    driver::JobSubmission job{timed.spec, timed.submit_at};
    job.spec.tenant = jobs.size() % 2 == 0 ? "a" : "b";
    jobs.push_back(job);
  }
  for (const std::string& name : alloc::AllocatorRegistry::instance().catalogue()) {
    if (name.ends_with("-traced")) continue;
    for (driver::SchedulerKind kind :
         {driver::SchedulerKind::kFifo, driver::SchedulerKind::kFair}) {
      driver::ExperimentConfig config =
          driver::ExperimentConfig::paper_default(driver::EngineKind::kHadoopV1);
      config.runtime.cluster = cluster::ClusterSpec::paper_testbed(4);
      config.policy = alloc::parse_policy_spec(name);
      config.scheduler = kind;
      std::uint64_t digests[2] = {0, 0};
      for (int decorated = 0; decorated < 2; ++decorated) {
        std::unique_ptr<mapreduce::AllocationPolicy> policy = driver::make_policy(config);
        std::unique_ptr<mapreduce::JobScheduler> scheduler = driver::make_scheduler(config);
        if (decorated != 0) {
          policy = std::make_unique<TracedPolicy>(std::move(policy));
          scheduler = std::make_unique<TracedScheduler>(std::move(scheduler));
        }
        mapreduce::Runtime runtime(config.runtime, std::move(policy), std::move(scheduler));
        for (const driver::JobSubmission& job : jobs) runtime.submit(job.spec, job.submit_at);
        Fnv fnv;
        add_run(fnv, runtime.run());
        digests[decorated] = fnv.value();
      }
      if (digests[0] != digests[1]) {
        mismatches.push_back(name + "/" + driver::scheduler_name(kind));
      }
    }
  }

  // Serving: a short session built through the registry, plain and traced
  // (the traced one gets TracedPolicy from the registry and TracedScheduler
  // from the wrapped make_scheduler).
  std::uint64_t digests[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    serve::ServeConfig config = serve_config(3, traced != 0);
    serve::ArrivalTrace trace = serve_arrivals(3);
    std::erase_if(trace.arrivals, [](const serve::Arrival& a) {
      return a.job.submit_at >= 6.0 * 3600.0;
    });
    config.horizon = 6.0 * 3600.0;
    config.warmup = 1800.0;
    set_tracing(traced != 0);
    serve::ServeSession session(config);
    session.replay(std::move(trace));
    set_tracing(false);
    Fnv fnv;
    add_run(fnv, session.run_result());
    digests[traced] = fnv.value();
  }
  collect_totals();
  if (digests[0] != digests[1]) mismatches.push_back("serve_mix session");
  return mismatches;
}

}  // namespace smrbench
