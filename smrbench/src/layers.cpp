#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>

#include "smr/alloc/registry.hpp"
#include "smr/cluster/compute_model.hpp"
#include "smr/cluster/network_model.hpp"
#include "smr/dfs/block_store.hpp"
#include "smr/driver/experiment.hpp"
#include "smr/mapreduce/runtime.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/serve/admission.hpp"
#include "smr/serve/burn_rate.hpp"
#include "smr/serve/slo.hpp"

namespace smrbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Frame {
  Layer layer;
  Clock::time_point start;
  double child_s;
};

struct ThreadState {
  TraceTotals totals;
  std::vector<Frame> stack;
};

std::atomic<bool> g_tracing{false};

// Every thread's state, owned here so it outlives pool threads; guarded by
// g_states_mutex (threads only touch their own entry while a pass runs).
std::mutex g_states_mutex;
std::vector<std::unique_ptr<ThreadState>> g_states;

ThreadState& thread_state() {
  thread_local ThreadState* state = [] {
    auto owned = std::make_unique<ThreadState>();
    ThreadState* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_states_mutex);
    g_states.push_back(std::move(owned));
    return raw;
  }();
  return *state;
}

/// The innermost open span's layer on this thread (kCount when none).
Layer current_layer() {
  const ThreadState& state = thread_state();
  return state.stack.empty() ? Layer::kCount : state.stack.back().layer;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRuntime: return "runtime";
    case Layer::kNetwork: return "network";
    case Layer::kNetworkSolve: return "network.solve";
    case Layer::kCompute: return "compute";
    case Layer::kComputeSolve: return "compute.solve";
    case Layer::kPolicyHeartbeat: return "policy.heartbeat";
    case Layer::kPolicyPeriod: return "policy.period";
    case Layer::kScheduler: return "scheduler";
    case Layer::kServe: return "serve";
    case Layer::kObs: return "obs";
    case Layer::kDfs: return "dfs";
    case Layer::kCount: break;
  }
  return "?";
}

void TraceTotals::add(const TraceTotals& other) {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i].calls += other.layers[i].calls;
    layers[i].busy_s += other.layers[i].busy_s;
    layers[i].self_s += other.layers[i].self_s;
  }
  const Counters& o = other.counters;
  counters.network_flows += o.network_flows;
  counters.network_uses += o.network_uses;
  counters.network_solver_calls += o.network_solver_calls;
  counters.network_full_solves += o.network_full_solves;
  counters.compute_loads += o.compute_loads;
  counters.compute_solver_calls += o.compute_solver_calls;
  counters.compute_full_solves += o.compute_full_solves;
  counters.scheduler_jobs += o.scheduler_jobs;
  counters.dfs_blocks += o.dfs_blocks;
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

TraceTotals collect_totals() {
  TraceTotals sum;
  std::lock_guard<std::mutex> lock(g_states_mutex);
  for (auto& state : g_states) {
    sum.add(state->totals);
    state->totals = TraceTotals{};
  }
  return sum;
}

Counters& thread_counters() { return thread_state().totals.counters; }

Span::Span(Layer layer) {
  if (!tracing()) return;
  active_ = true;
  thread_state().stack.push_back({layer, Clock::now(), 0.0});
}

Span::~Span() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  ThreadState& state = thread_state();
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const double duration = std::chrono::duration<double>(end - frame.start).count();
  LayerTotals& totals = state.totals.layers[static_cast<std::size_t>(frame.layer)];
  ++totals.calls;
  totals.busy_s += duration;
  totals.self_s += duration - frame.child_s;
  if (!state.stack.empty()) state.stack.back().child_s += duration;
}

std::string register_traced_policy(const std::string& name) {
  const std::string traced = name + "-traced";
  auto& registry = smr::alloc::AllocatorRegistry::instance();
  if (!registry.known(traced)) {
    registry.register_policy(
        traced, {},
        [name](const smr::alloc::PolicySpec& spec,
               const smr::alloc::PolicyContext& context)
            -> std::unique_ptr<smr::mapreduce::AllocationPolicy> {
          smr::alloc::PolicySpec inner = spec;
          inner.name = name;
          return std::make_unique<TracedPolicy>(
              smr::alloc::AllocatorRegistry::instance().create(inner, context));
        });
  }
  return traced;
}

}  // namespace smrbench

// ---------------------------------------------------------------------------
// Link-time wrappers.  CMakeLists.txt passes --wrap=<symbol> for each symbol
// below, so every call the library (or this benchmark) makes to <symbol>
// lands in __wrap_<symbol>, and __real_<symbol> is the library's definition.
// Member functions are declared as free functions taking `this` first, which
// is how the Itanium C++ ABI passes it.  Wrappers must have external linkage
// for the linker to bind them.

namespace smrbench::wrap {

using smr::Bytes;
using smr::SimTime;
namespace cluster = smr::cluster;
namespace obs = smr::obs;
namespace serve = smr::serve;

#define SMRBENCH_REAL(symbol) __asm__("__real_" symbol)
#define SMRBENCH_WRAP(symbol) __asm__("__wrap_" symbol)

// --- cluster::NetworkModel::allocate_cached --------------------------------
#define SYM_NET \
  "_ZN3smr7cluster12NetworkModel15allocate_cachedESt4spanIKNS0_7NetFlowELm18446744073709551615EES2_IKiLm18446744073709551615EE"
const std::vector<double>& real_allocate_cached(cluster::NetworkModel*,
                                                std::span<const cluster::NetFlow>,
                                                std::span<const int>) SMRBENCH_REAL(SYM_NET);
const std::vector<double>& wrap_allocate_cached(cluster::NetworkModel* self,
                                                std::span<const cluster::NetFlow> flows,
                                                std::span<const int> streams) SMRBENCH_WRAP(SYM_NET);
const std::vector<double>& wrap_allocate_cached(cluster::NetworkModel* self,
                                                std::span<const cluster::NetFlow> flows,
                                                std::span<const int> streams) {
  if (!tracing()) return real_allocate_cached(self, flows, streams);
  const cluster::MaxMinSolver::Stats before = self->solver_stats();
  const std::vector<double>* rates = nullptr;
  {
    Span span(Layer::kNetwork);
    rates = &real_allocate_cached(self, flows, streams);
  }
  const cluster::MaxMinSolver::Stats after = self->solver_stats();
  Counters& c = thread_counters();
  c.network_flows += flows.size();
  c.network_solver_calls += after.calls - before.calls;
  c.network_full_solves += after.full_solves - before.full_solves;
  // The problem NetworkModel builds: each flow uses its receive port and the
  // fabric, plus one transmit port (point-to-point) or every transmit port
  // (diffuse shuffle).  The node count is the fetch-stream vector's length.
  for (const cluster::NetFlow& flow : flows) {
    c.network_uses += 2 + (flow.src == smr::kInvalidNode ? streams.size() : 1);
  }
  return *rates;
}

// --- cluster::ComputeModel::solve_cached -----------------------------------
#define SYM_COMPUTE \
  "_ZN3smr7cluster12ComputeModel12solve_cachedERKNS0_8NodeSpecERKNS0_9OccupancyERKNS0_14BackgroundLoadESt4spanIKNS0_9PhaseLoadELm18446744073709551615EE"
const std::vector<double>& real_solve_cached(cluster::ComputeModel*, const cluster::NodeSpec&,
                                             const cluster::Occupancy&,
                                             const cluster::BackgroundLoad&,
                                             std::span<const cluster::PhaseLoad>)
    SMRBENCH_REAL(SYM_COMPUTE);
const std::vector<double>& wrap_solve_cached(cluster::ComputeModel* self,
                                             const cluster::NodeSpec& node,
                                             const cluster::Occupancy& occ,
                                             const cluster::BackgroundLoad& background,
                                             std::span<const cluster::PhaseLoad> loads)
    SMRBENCH_WRAP(SYM_COMPUTE);
const std::vector<double>& wrap_solve_cached(cluster::ComputeModel* self,
                                             const cluster::NodeSpec& node,
                                             const cluster::Occupancy& occ,
                                             const cluster::BackgroundLoad& background,
                                             std::span<const cluster::PhaseLoad> loads) {
  if (!tracing()) return real_solve_cached(self, node, occ, background, loads);
  const cluster::MaxMinSolver::Stats before = self->solver_stats();
  const std::vector<double>* rates = nullptr;
  {
    Span span(Layer::kCompute);
    rates = &real_solve_cached(self, node, occ, background, loads);
  }
  const cluster::MaxMinSolver::Stats after = self->solver_stats();
  Counters& c = thread_counters();
  c.compute_loads += loads.size();
  c.compute_solver_calls += after.calls - before.calls;
  c.compute_full_solves += after.full_solves - before.full_solves;
  return *rates;
}

// --- cluster::MaxMinSolver::solve -----------------------------------------
#define SYM_SOLVE \
  "_ZN3smr7cluster12MaxMinSolver5solveESt4spanIKdLm18446744073709551615EES2_IKNS0_10FlowDemandELm18446744073709551615EE"
const std::vector<double>& real_solve(cluster::MaxMinSolver*, std::span<const double>,
                                      std::span<const cluster::FlowDemand>)
    SMRBENCH_REAL(SYM_SOLVE);
const std::vector<double>& wrap_solve(cluster::MaxMinSolver* self,
                                      std::span<const double> capacities,
                                      std::span<const cluster::FlowDemand> flows)
    SMRBENCH_WRAP(SYM_SOLVE);
const std::vector<double>& wrap_solve(cluster::MaxMinSolver* self,
                                      std::span<const double> capacities,
                                      std::span<const cluster::FlowDemand> flows) {
  if (!tracing()) return real_solve(self, capacities, flows);
  Span span(current_layer() == Layer::kNetwork ? Layer::kNetworkSolve
                                               : Layer::kComputeSolve);
  return real_solve(self, capacities, flows);
}

// --- mapreduce::Runtime::run ----------------------------------------------
#define SYM_RUN "_ZN3smr9mapreduce7Runtime3runEv"
smr::metrics::RunResult real_run(smr::mapreduce::Runtime*) SMRBENCH_REAL(SYM_RUN);
smr::metrics::RunResult wrap_run(smr::mapreduce::Runtime* self) SMRBENCH_WRAP(SYM_RUN);
smr::metrics::RunResult wrap_run(smr::mapreduce::Runtime* self) {
  Span span(Layer::kRuntime);
  return real_run(self);
}

// --- driver::make_scheduler -------------------------------------------------
// ServeSession builds its scheduler here; when tracing, hand it a decorated
// one (the batch workloads call this too and get the same decoration).
#define SYM_MAKE_SCHEDULER "_ZN3smr6driver14make_schedulerERKNS0_16ExperimentConfigE"
std::unique_ptr<smr::mapreduce::JobScheduler> real_make_scheduler(
    const smr::driver::ExperimentConfig&) SMRBENCH_REAL(SYM_MAKE_SCHEDULER);
std::unique_ptr<smr::mapreduce::JobScheduler> wrap_make_scheduler(
    const smr::driver::ExperimentConfig& config) SMRBENCH_WRAP(SYM_MAKE_SCHEDULER);
std::unique_ptr<smr::mapreduce::JobScheduler> wrap_make_scheduler(
    const smr::driver::ExperimentConfig& config) {
  auto scheduler = real_make_scheduler(config);
  if (!tracing()) return scheduler;
  return std::make_unique<TracedScheduler>(std::move(scheduler));
}

// The remaining wrappers only time the forwarded call.  SMRBENCH_DECLARE
// declares the __real_/__wrap_ pair for one signature; SMRBENCH_FORWARD is
// the wrapper body.
#define SMRBENCH_DECLARE(ret, fn, symbol, params) \
  ret real_##fn params SMRBENCH_REAL(symbol);     \
  ret wrap_##fn params SMRBENCH_WRAP(symbol);
#define SMRBENCH_FORWARD(layer, fn, ...) \
  {                                      \
    Span span(layer);                    \
    return real_##fn(__VA_ARGS__);       \
  }

// --- dfs::BlockStore::add_file ---------------------------------------------
SMRBENCH_DECLARE(smr::dfs::FileId, add_file, "_ZN3smr3dfs10BlockStore8add_fileEll",
                 (smr::dfs::BlockStore* self, Bytes size, Bytes block_size))
smr::dfs::FileId wrap_add_file(smr::dfs::BlockStore* self, Bytes size, Bytes block_size) {
  if (!tracing()) return real_add_file(self, size, block_size);
  smr::dfs::FileId id = 0;
  {
    Span span(Layer::kDfs);
    id = real_add_file(self, size, block_size);
  }
  thread_counters().dfs_blocks += self->file(id).blocks.size();
  return id;
}

// --- serve: SloTracker, AdmissionController, BurnRateTracker ---------------
SMRBENCH_DECLARE(void, slo_arrival, "_ZN3smr5serve10SloTracker14record_arrivalEid",
                 (serve::SloTracker* self, int tenant, SimTime arrived))
void wrap_slo_arrival(serve::SloTracker* self, int tenant, SimTime arrived)
    SMRBENCH_FORWARD(Layer::kServe, slo_arrival, self, tenant, arrived)

SMRBENCH_DECLARE(void, slo_shed, "_ZN3smr5serve10SloTracker11record_shedEid",
                 (serve::SloTracker* self, int tenant, SimTime arrived))
void wrap_slo_shed(serve::SloTracker* self, int tenant, SimTime arrived)
    SMRBENCH_FORWARD(Layer::kServe, slo_shed, self, tenant, arrived)

SMRBENCH_DECLARE(void, slo_deferred, "_ZN3smr5serve10SloTracker15record_deferredEid",
                 (serve::SloTracker* self, int tenant, SimTime arrived))
void wrap_slo_deferred(serve::SloTracker* self, int tenant, SimTime arrived)
    SMRBENCH_FORWARD(Layer::kServe, slo_deferred, self, tenant, arrived)

SMRBENCH_DECLARE(void, slo_outcome, "_ZN3smr5serve10SloTracker14record_outcomeEiddddb",
                 (serve::SloTracker* self, int tenant, SimTime arrived, SimTime finished,
                  SimTime service, SimTime deadline, bool failed))
void wrap_slo_outcome(serve::SloTracker* self, int tenant, SimTime arrived,
                      SimTime finished, SimTime service, SimTime deadline, bool failed)
    SMRBENCH_FORWARD(Layer::kServe, slo_outcome, self, tenant, arrived, finished, service,
                     deadline, failed)

SMRBENCH_DECLARE(void, slo_fill, "_ZNK3smr5serve10SloTracker4fillERNS0_11ServeReportE",
                 (const serve::SloTracker* self, serve::ServeReport& report))
void wrap_slo_fill(const serve::SloTracker* self, serve::ServeReport& report)
    SMRBENCH_FORWARD(Layer::kServe, slo_fill, self, report)

SMRBENCH_DECLARE(serve::AdmissionDecision, admission_arrival,
                 "_ZN3smr5serve19AdmissionController10on_arrivalEv",
                 (serve::AdmissionController* self))
serve::AdmissionDecision wrap_admission_arrival(serve::AdmissionController* self)
    SMRBENCH_FORWARD(Layer::kServe, admission_arrival, self)

SMRBENCH_DECLARE(bool, admission_departure,
                 "_ZN3smr5serve19AdmissionController12on_departureEv",
                 (serve::AdmissionController* self))
bool wrap_admission_departure(serve::AdmissionController* self)
    SMRBENCH_FORWARD(Layer::kServe, admission_departure, self)

SMRBENCH_DECLARE(void, admission_deferred,
                 "_ZN3smr5serve19AdmissionController20on_deferred_admittedEv",
                 (serve::AdmissionController* self))
void wrap_admission_deferred(serve::AdmissionController* self)
    SMRBENCH_FORWARD(Layer::kServe, admission_deferred, self)

SMRBENCH_DECLARE(std::optional<serve::BurnAlert>, burn_record,
                 "_ZN3smr5serve15BurnRateTracker6recordEidb",
                 (serve::BurnRateTracker* self, int tenant, SimTime now, bool met))
std::optional<serve::BurnAlert> wrap_burn_record(serve::BurnRateTracker* self, int tenant,
                                                 SimTime now, bool met)
    SMRBENCH_FORWARD(Layer::kServe, burn_record, self, tenant, now, met)

// --- obs: registry lookups and sampled instruments -------------------------
SMRBENCH_DECLARE(obs::Counter&, counter,
                 "_ZN3smr3obs15MetricsRegistry7counterERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
                 (obs::MetricsRegistry* self, const std::string& name))
obs::Counter& wrap_counter(obs::MetricsRegistry* self, const std::string& name)
    SMRBENCH_FORWARD(Layer::kObs, counter, self, name)

SMRBENCH_DECLARE(obs::Series&, series,
                 "_ZN3smr3obs15MetricsRegistry6seriesERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE",
                 (obs::MetricsRegistry* self, const std::string& name))
obs::Series& wrap_series(obs::MetricsRegistry* self, const std::string& name)
    SMRBENCH_FORWARD(Layer::kObs, series, self, name)

SMRBENCH_DECLARE(obs::Histogram&, histogram,
                 "_ZN3smr3obs15MetricsRegistry9histogramERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt6vectorIdSaIdEE",
                 (obs::MetricsRegistry* self, const std::string& name,
                  std::vector<double> bounds))
obs::Histogram& wrap_histogram(obs::MetricsRegistry* self, const std::string& name,
                               std::vector<double> bounds)
    SMRBENCH_FORWARD(Layer::kObs, histogram, self, name, std::move(bounds))

SMRBENCH_DECLARE(void, series_append, "_ZN3smr3obs6Series6appendEdd",
                 (obs::Series* self, double time, double value))
void wrap_series_append(obs::Series* self, double time, double value)
    SMRBENCH_FORWARD(Layer::kObs, series_append, self, time, value)

SMRBENCH_DECLARE(void, histogram_observe, "_ZN3smr3obs9Histogram7observeEd",
                 (obs::Histogram* self, double value))
void wrap_histogram_observe(obs::Histogram* self, double value)
    SMRBENCH_FORWARD(Layer::kObs, histogram_observe, self, value)

}  // namespace smrbench::wrap
