// Per-layer accounting for the traced run.
//
// A Span marks one call into a layer of the smr library, made from this
// benchmark's own code: the link-time wrappers in layers.cpp (network and
// compute solves, the max-min solver, Runtime::run, DFS placement, the serve
// trackers, the metrics registry) and the policy/scheduler decorators below.
// Spans nest per thread; a span's self time is its duration minus the time
// its child spans cover, so `runtime` self time is what Runtime::run spends
// outside every wrapped layer (engine dispatch, tick stages, heartbeat and
// assignment).
//
// Individual calls are folded into per-thread, per-layer totals when the
// span closes rather than stored one by one: the fine-grained layers are
// entered millions of times per pass, and a span record per call would cost
// as much memory as the simulation itself.  The totals stay in memory and
// are collected between passes (collect_totals), and the traced run writes
// them out at the end.
//
// With tracing off (the default) a Span does nothing beyond one relaxed
// atomic load, and every wrapper forwards straight to the library.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "smr/mapreduce/policy.hpp"
#include "smr/mapreduce/scheduler.hpp"

namespace smrbench {

enum class Layer : int {
  kRuntime,          // mapreduce::Runtime::run
  kNetwork,          // cluster::NetworkModel::allocate_cached
  kNetworkSolve,     //   cluster::MaxMinSolver::solve under a network call
  kCompute,          // cluster::ComputeModel::solve_cached
  kComputeSolve,     //   cluster::MaxMinSolver::solve under a compute call
  kPolicyHeartbeat,  // AllocationPolicy::on_heartbeat
  kPolicyPeriod,     // AllocationPolicy::on_period
  kScheduler,        // JobScheduler::job_order
  kServe,            // serve::SloTracker / AdmissionController / BurnRateTracker
  kObs,              // obs::MetricsRegistry lookups, Series / Histogram updates
  kDfs,              // dfs::BlockStore::add_file
  kCount
};

const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t calls = 0;
  double busy_s = 0.0;  // summed span durations
  double self_s = 0.0;  // busy_s minus time covered by child spans
};

/// Problem sizes and solver outcomes counted at the wrapped boundaries.
struct Counters {
  std::uint64_t network_flows = 0;
  std::uint64_t network_uses = 0;  // computed from the flow arguments
  std::uint64_t network_solver_calls = 0;
  std::uint64_t network_full_solves = 0;
  std::uint64_t compute_loads = 0;
  std::uint64_t compute_solver_calls = 0;
  std::uint64_t compute_full_solves = 0;
  std::uint64_t scheduler_jobs = 0;
  std::uint64_t dfs_blocks = 0;
};

struct TraceTotals {
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  Counters counters;

  const LayerTotals& operator[](Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
  void add(const TraceTotals& other);
};

/// Turn span recording on or off.  Call only between passes.
void set_tracing(bool on);
bool tracing();

/// Sum and clear every thread's totals.  Call only between passes, when no
/// simulation is running.
TraceTotals collect_totals();

/// Per-thread counters of the calling thread (valid while tracing).
Counters& thread_counters();

/// RAII span: records one call into `layer` when tracing is on.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Forwards every AllocationPolicy virtual to `inner`, timing the
/// heartbeat and period callbacks.
class TracedPolicy final : public smr::mapreduce::AllocationPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<smr::mapreduce::AllocationPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void on_start(std::span<smr::mapreduce::TaskTracker> trackers) override {
    inner_->on_start(trackers);
  }
  void on_heartbeat(smr::mapreduce::TaskTracker& tracker,
                    const smr::mapreduce::ClusterStats& stats) override {
    Span span(Layer::kPolicyHeartbeat);
    inner_->on_heartbeat(tracker, stats);
  }
  bool wants_heartbeat_stats() const override {
    return inner_->wants_heartbeat_stats();
  }
  bool wants_job_stats() const override { return inner_->wants_job_stats(); }
  bool wants_placement_stats() const override {
    return inner_->wants_placement_stats();
  }
  void on_period(std::span<smr::mapreduce::TaskTracker> trackers,
                 const smr::mapreduce::ClusterStats& stats) override {
    Span span(Layer::kPolicyPeriod);
    inner_->on_period(trackers, stats);
  }
  void set_decision_log(smr::obs::DecisionLog* log) override {
    inner_->set_decision_log(log);
  }
  const smr::obs::DecisionLog* decision_log() const override {
    return inner_->decision_log();
  }
  const std::vector<int>* job_task_caps() const override {
    return inner_->job_task_caps();
  }
  std::vector<std::pair<std::string, double>> credit_balances() const override {
    return inner_->credit_balances();
  }

 private:
  std::unique_ptr<smr::mapreduce::AllocationPolicy> inner_;
};

/// Forwards JobScheduler::job_order to `inner`, timing each call and
/// counting the active jobs it orders.
class TracedScheduler final : public smr::mapreduce::JobScheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<smr::mapreduce::JobScheduler> inner)
      : inner_(std::move(inner)) {}

  using JobScheduler::job_order;

  std::string name() const override { return inner_->name(); }
  std::vector<std::size_t> job_order(const std::vector<smr::mapreduce::Job>& jobs,
                                     std::span<const std::size_t> active,
                                     bool for_map) const override {
    Span span(Layer::kScheduler);
    thread_counters().scheduler_jobs += active.size();
    return inner_->job_order(jobs, active, for_map);
  }

 private:
  std::unique_ptr<smr::mapreduce::JobScheduler> inner_;
};

/// Register "<name>-traced" in the allocator registry: it builds `name`
/// with the same options and wraps it in TracedPolicy, so a ServeSession
/// (which builds its policy from the registry) runs decorated.  Idempotent.
std::string register_traced_policy(const std::string& name);

}  // namespace smrbench
