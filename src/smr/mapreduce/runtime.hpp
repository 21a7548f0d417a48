// ClusterRuntime: executes MapReduce jobs on the simulated cluster.
//
// The runtime advances a fluid task model on a fixed tick: each tick it
// (1) takes a census of every node's resident tasks (threads, I/O streams,
// memory working sets), (2) allocates the network between shuffle fetches
// and remote map-input reads, (3) caps shuffle ingest by each receiver's
// disk, (4) solves per-node CPU/disk contention for every compute-bearing
// sub-phase, and (5) integrates progress and fires phase transitions, map
// completions (which feed reduce-task backlogs), the map/reduce barrier and
// job completions.
//
// The control plane runs on events: per-tracker heartbeats (staggered,
// every heartbeat_period) on which the allocation policy may adjust slot
// targets and the job tracker assigns tasks (FIFO with node-local
// preference), and a policy period on which cluster-wide policies (the
// paper's slot manager) make decisions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "smr/cluster/compute_model.hpp"
#include "smr/common/error.hpp"
#include "smr/cluster/network_model.hpp"
#include "smr/cluster/node.hpp"
#include "smr/common/rng.hpp"
#include "smr/common/types.hpp"
#include "smr/dfs/block_store.hpp"
#include "smr/mapreduce/job.hpp"
#include "smr/mapreduce/policy.hpp"
#include "smr/mapreduce/scheduler.hpp"
#include "smr/mapreduce/tracker.hpp"
#include "smr/metrics/job_metrics.hpp"
#include "smr/metrics/trace.hpp"
#include "smr/obs/metrics_registry.hpp"
#include "smr/obs/span_log.hpp"
#include "smr/sim/engine.hpp"

namespace smr::mapreduce {

struct RuntimeConfig {
  cluster::ClusterSpec cluster = cluster::ClusterSpec::paper_testbed();

  /// Initial (HadoopV1-style) slot configuration per task tracker.
  int initial_map_slots = 3;
  int initial_reduce_slots = 2;

  /// Fluid integration step.
  SimTime tick = 0.25;
  /// Task tracker heartbeat period (Hadoop default 3 s), staggered across
  /// trackers.
  SimTime heartbeat_period = 3.0;
  /// Period of AllocationPolicy::on_period (the slot manager thread).
  SimTime policy_period = 6.0;
  /// Progress/slot sampling period for the recorders.
  SimTime sample_period = 2.0;

  /// Fraction of a job's maps that must finish before its reduce tasks may
  /// launch (mapred.reduce.slowstart.completed.maps; default 0.05).
  double reduce_slowstart = 0.05;

  /// Max fraction of a node's effective disk bandwidth the shuffle ingest
  /// may consume (merge segments written behind the fetchers).
  double shuffle_disk_share = 0.6;

  /// Concurrent fetch streams per shuffling reduce task (parallel copies).
  int parallel_copies = 5;

  std::uint64_t seed = 1;

  /// Counterfactual to the paper's lazy slot changer (§III-D): when true,
  /// a tracker whose map target drops below its running count *kills* its
  /// most recently started excess map tasks and requeues them from scratch
  /// (the rescheduling cost the lazy policy exists to avoid).
  bool eager_slot_shrink = false;

  /// Delay scheduling (Zaharia et al., the paper's reference [13]): a job
  /// offered a slot on a node holding none of its pending splits may pass
  /// up to this many times, waiting for a node-local slot, before accepting
  /// a remote assignment.  0 disables (greedy Hadoop FIFO behaviour).
  int locality_wait_offers = 0;

  /// Speculative execution of straggling map tasks (Hadoop's backup
  /// tasks).  When a job has no pending maps and a tracker has idle map
  /// slots, a second attempt of the slowest running map may be launched on
  /// it; the first attempt to finish wins and the other is killed.
  /// Speculation competes with other jobs for slots, which is why it
  /// interacts with slot management.
  bool speculative_execution = false;
  /// Speculative execution of straggling *reduce* tasks: a backup attempt
  /// may launch once the job is past the barrier (its partition is fully
  /// available, so the backup can re-fetch independently).  Requires
  /// speculative_execution as well.
  bool speculative_reduce_execution = false;
  /// A task is a straggler if its progress trails the mean progress of its
  /// job's running maps by more than this gap (Hadoop's 0.2 rule).
  double speculative_progress_gap = 0.2;
  /// Never speculate on tasks younger than this (they may just have
  /// started) or further along than 90% (not worth the duplicate work).
  SimTime speculative_min_age = 30.0;

  /// Fault injection: fail a worker node at a given time.  Running tasks
  /// on it are requeued; completed map tasks whose output is still needed
  /// by an unfinished shuffle are re-executed (map outputs live on the
  /// failed node's local disk, exactly as in Hadoop).  When `recover_at`
  /// is set the failure is *transient*: the tracker rejoins at that time
  /// with no running tasks, its initial slot targets, a clean blacklist
  /// record, and a resumed heartbeat.  The same node may fail and recover
  /// repeatedly via multiple entries.
  struct NodeFailure {
    NodeId node = kInvalidNode;
    SimTime at = 0.0;
    SimTime recover_at = kTimeNever;  // kTimeNever = permanent
  };
  std::vector<NodeFailure> failures;

  /// Probability that any given task attempt (map or reduce, speculative
  /// shadows included) fails mid-phase.  Each launch draws once from a
  /// dedicated seeded stream; a failing attempt is assigned a progress
  /// threshold and dies when it crosses it.  0 disables injection and
  /// leaves every RNG stream untouched.
  double task_fail_rate = 0.0;

  /// Attempts per task before the owning *job* is failed and torn down
  /// (Hadoop's mapred.map.max.attempts / reduce.max.attempts, default 4).
  int max_attempts = 4;

  /// Blacklist a tracker once this many attempt failures happened on it
  /// (Hadoop's tracker fault threshold).  Blacklisted trackers keep
  /// heartbeating but receive no new tasks and drop out of slot-target
  /// totals; the last healthy tracker is never blacklisted.  0 disables.
  int blacklist_after = 4;

  /// Hard stop; a run hitting it reports completed == false.
  SimTime time_limit = 48.0 * 3600.0;

  void validate() const;
};

class Runtime {
 public:
  /// `scheduler` orders jobs for slot assignment; nullptr means FIFO (the
  /// Hadoop default the paper evaluates with).
  Runtime(RuntimeConfig config, std::unique_ptr<AllocationPolicy> policy,
          std::unique_ptr<JobScheduler> scheduler = nullptr);

  /// Submit a job for execution at absolute time `at`.  Before run() this
  /// builds the batch workload, exactly as before.  After run() has started
  /// it is the serving path: allowed only on a runtime held open via
  /// keep_open(), with `at` >= now; the job enters the running simulation
  /// and competes for slots from `at` on.
  JobId submit(const JobSpec& spec, SimTime at = 0.0);

  /// Serving mode: keep the run alive when the job queue momentarily
  /// drains, so an open-loop arrival process can keep submitting into the
  /// running simulation.  Must be called before run(); the run then only
  /// ends after close_submissions() (or the time limit / an abort).
  void keep_open() {
    SMR_CHECK_MSG(!ran_, "keep_open() after run()");
    open_ = true;
  }

  /// End of the arrival stream: no further submissions will be made.  The
  /// run may stop as soon as every submitted job has finished.  Callable
  /// from inside an engine event (the usual case) or before run().
  void close_submissions();

  /// Optional callback fired whenever a job leaves the system — finished
  /// or failed (Job::failed distinguishes).  Invoked at the tail of the
  /// completing event with the runtime's state consistent, but the
  /// callback must NOT synchronously call back into the runtime (submit,
  /// close_submissions, ...): schedule a zero-delay engine event instead.
  void set_job_finished_callback(std::function<void(const Job&)> callback) {
    on_job_finished_ = std::move(callback);
  }

  /// Execute the simulation to completion (or the time limit); single use.
  metrics::RunResult run();

  /// Attach a trace log (optional; must outlive run()).  Records every job
  /// submission, task launch, phase transition, completion, kill and
  /// barrier crossing, plus slot-target counter changes and (when the
  /// policy keeps a decision log) POLICY_DECISION events.
  void set_trace(metrics::TraceLog* trace) { trace_ = trace; }

  /// Attach a metrics registry (optional; must outlive run()).  The
  /// runtime then records sampled time series every sample period
  /// (slot targets, running tasks, queue depths, shuffle bytes in
  /// flight), control-plane counters (heartbeats, policy periods, task
  /// launches/kills) and task-duration histograms.  Metric names are
  /// documented in docs/OBSERVABILITY.md.
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    instruments_ = {};
  }

  /// Attach a span log (optional; must outlive run()).  The runtime then
  /// records the causal span tree — run > job > phase (map waves, shuffle,
  /// reduce) > task attempt — with retries linked to the attempt whose
  /// failure caused them and every launch annotated with the most recent
  /// slot-changing policy decision (when the policy keeps a DecisionLog).
  /// Recording is purely observational (no RNG draws, no events): a run
  /// is bit-identical with or without a log attached, and with none the
  /// hooks reduce to a null-pointer test.
  void set_spans(obs::SpanLog* spans) { spans_ = spans; }

  // --- Observers (tests and policies) ---------------------------------
  const RuntimeConfig& config() const { return config_; }
  ClusterStats snapshot() const;
  /// Fill `stats` in place, reusing its vector capacity (the per-heartbeat
  /// path; identical contents to snapshot()).
  void snapshot_into(ClusterStats& stats) const;
  std::span<TaskTracker> trackers() { return trackers_; }
  std::span<const TaskTracker> trackers() const { return trackers_; }
  const std::vector<Job>& jobs() const { return jobs_; }
  sim::Engine& engine() { return engine_; }
  AllocationPolicy& policy() { return *policy_; }
  const JobScheduler& scheduler() const { return *scheduler_; }
  const dfs::BlockStore& dfs() const { return dfs_; }

  /// Count of map tasks that ran on a node holding a replica of their
  /// split (locality diagnostics).
  int local_map_launches() const { return local_map_launches_; }
  int remote_map_launches() const { return remote_map_launches_; }
  /// Map tasks killed by eager slot shrinking (0 under the lazy policy).
  int killed_map_tasks() const { return killed_map_tasks_; }
  /// Tasks (running or completed-but-needed maps, running reduces) lost to
  /// injected node failures and requeued.
  int tasks_lost_to_failures() const { return tasks_lost_to_failures_; }
  /// Injected per-attempt failures (tentpole fault model) and the retries
  /// they caused (an exhausted task fails its job instead of retrying).
  int task_attempt_failures() const { return task_attempt_failures_; }
  int task_retries() const { return task_retries_; }
  /// Jobs torn down because a task exhausted max_attempts.
  int failed_jobs() const { return failed_jobs_; }
  /// Node lifecycle counters.
  int nodes_recovered() const { return nodes_recovered_; }
  int nodes_blacklisted() const { return nodes_blacklisted_; }
  bool node_blacklisted(NodeId node) const {
    return trackers_[static_cast<std::size_t>(node)].blacklisted();
  }
  /// Speculative map attempts launched / that finished before the original.
  int speculative_launches() const { return speculative_launches_; }
  int speculative_wins() const { return speculative_wins_; }
  int speculative_reduce_launches() const { return speculative_reduce_launches_; }
  int speculative_reduce_wins() const { return speculative_reduce_wins_; }
  bool node_alive(NodeId node) const {
    return node_alive_[static_cast<std::size_t>(node)];
  }
  /// True once the run has stopped accepting work (all jobs done after
  /// close_submissions(), or an abort).  The serving layer checks this
  /// before submitting deferred jobs.
  bool stopped() const { return stopping_; }

  /// Cluster-total live slot targets (map + reduce) over alive,
  /// non-blacklisted trackers — the capacity the fairness layer accounts
  /// tenant usage against.
  int live_slot_capacity() const {
    return total_map_target() + total_reduce_target();
  }

  /// Per-job census of the active jobs (tenant, pending/running tasks),
  /// independent of the policy's wants_job_stats() gate.  The serving
  /// layer's fairness sampler reads this every policy period.
  std::vector<JobStats> job_census() const;

  /// Aggregated incremental max-min solver statistics over every per-node
  /// compute model plus the network model (perf instrumentation).
  cluster::MaxMinSolver::Stats solver_stats() const;


 private:
  struct TaskRef {
    JobId job = kInvalidJob;
    int index = -1;
    bool is_map = true;
    /// True for speculative shadow attempts; `index` then names the
    /// primary task the shadow duplicates and `shadow_slot` its record in
    /// the map/reduce shadow pool.
    bool speculative = false;
    std::int32_t shadow_slot = -1;
  };

  void on_tick();
  void on_heartbeat(std::size_t tracker_index);
  void on_policy_period();
  void on_sample();
  /// Append one sample of every cluster-level metric series.  Called from
  /// on_sample() on the sampling period and once more from abort_run() so
  /// an aborted run's metrics end at the abort instant, not mid-period.
  void record_metric_samples(SimTime now);
  void assign_tasks(TaskTracker& tracker);
  void eager_shrink(TaskTracker& tracker);
  void requeue_running_map(MapTask& task);
  void requeue_running_reduce(ReduceTask& task);
  void requeue_completed_map(Job& job, MapTask& task);
  void fail_node(NodeId node);
  void recover_node(NodeId node);
  /// Stop the run without finishing: cancel all periodic machinery and
  /// report completed == false with `reason`.
  void abort_run(std::string reason);
  /// Fault injection: per-attempt failure draws and mid-phase checks.
  /// Doom detection itself rides the tick's resolve pass (the scratch's
  /// doomed_* lists); this fails the collected attempts in id order.
  double draw_fail_threshold();
  void fail_doomed_attempts();
  void fail_map_attempt(TaskId id);
  void fail_reduce_attempt(TaskId id);
  /// Count an attempt failure against `node`, blacklisting it at the
  /// configured threshold (never the last healthy tracker).
  void record_attempt_failure_on(NodeId node);
  /// A task exhausted max_attempts: cancel the job's running attempts and
  /// mark it failed (JobResult.failed) instead of wedging the run.
  void fail_job(Job& job, std::string reason);
  /// A live replica of `replicas` to read from, falling back to any live
  /// node (HDFS re-replication); kInvalidNode when every worker is dead.
  NodeId pick_live_source(const std::vector<NodeId>& replicas);
  /// Roll a running attempt's fluid input accounting back out of the job
  /// and cluster counters.
  void rollback_map_progress(const MapTask& task);
  bool launch_speculative(TaskTracker& tracker);
  void kill_shadow(MapTask& primary);
  /// The shadow attempt `shadow_id` finished first: kill the primary
  /// attempt and complete the task on the shadow's node.
  void win_speculative(TaskId shadow_id);
  /// Shadow attempt id of `primary` (kInvalidTask when none).  Maps and
  /// reduces share the TaskId space, so one dense table serves both.
  TaskId shadow_id_of(TaskId primary) const {
    return static_cast<std::size_t>(primary) < shadow_link_.size()
               ? shadow_link_[static_cast<std::size_t>(primary)]
               : kInvalidTask;
  }
  void set_shadow_link(TaskId primary, TaskId shadow);
  bool has_shadow(TaskId primary) const {
    return shadow_id_of(primary) != kInvalidTask;
  }
  bool launch_speculative_reduce(TaskTracker& tracker);
  void kill_reduce_shadow(ReduceTask& primary);
  void win_speculative_reduce(TaskId shadow_id);
  bool has_reduce_shadow(TaskId primary) const { return has_shadow(primary); }
  /// Pool slot management for shadow attempt records (dense, free-listed;
  /// slots are stable for the lifetime of the attempt).
  std::int32_t acquire_map_shadow_slot();
  void release_map_shadow_slot(std::int32_t slot);
  std::int32_t acquire_reduce_shadow_slot();
  void release_reduce_shadow_slot(std::int32_t slot);
  bool assign_one_map(TaskTracker& tracker);
  bool assign_one_reduce(TaskTracker& tracker);
  /// True when the policy caps this job's in-flight task count and the cap
  /// is reached (see AllocationPolicy::job_task_caps).
  bool job_at_cap(const Job& job, bool for_map) const;
  /// `attempt_id` is the tracker-list entry of the finishing attempt (the
  /// task's own id, or the shadow's id after a speculative win).
  void complete_map(Job& job, MapTask& task, TaskId attempt_id);
  void complete_reduce(Job& job, ReduceTask& task, TaskId attempt_id);
  void settle_reduce(Job& job, ReduceTask& task);
  /// The tick's completions and shuffle settles, in task-id order.
  void finish_tick();
  void check_all_done();

  Job& job_of(JobId id) {
    SMR_CHECK(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
    return jobs_[static_cast<std::size_t>(id)];
  }
  MapTask& map_task(TaskId id);
  ReduceTask& reduce_task(TaskId id);
  /// Task ids are allocated densely from 0, so the ref table is a plain
  /// vector (hot: every census/integration step resolves ids through it).
  /// A slot with job == kInvalidJob is retired (shadow attempts only;
  /// primary-task refs live for the whole run).
  const TaskRef* find_task_ref(TaskId id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= task_refs_.size()) return nullptr;
    const TaskRef& ref = task_refs_[static_cast<std::size_t>(id)];
    return ref.job == kInvalidJob ? nullptr : &ref;
  }
  const TaskRef& task_ref_at(TaskId id) const {
    const TaskRef* ref = find_task_ref(id);
    SMR_CHECK_MSG(ref != nullptr, "unknown task " << id);
    return *ref;
  }
  void set_task_ref(TaskId id, TaskRef ref) {
    SMR_CHECK(id >= 0);
    if (static_cast<std::size_t>(id) >= task_refs_.size()) {
      task_refs_.resize(static_cast<std::size_t>(id) + 1);
    }
    task_refs_[static_cast<std::size_t>(id)] = ref;
  }
  void erase_task_ref(TaskId id) {
    if (id >= 0 && static_cast<std::size_t>(id) < task_refs_.size()) {
      task_refs_[static_cast<std::size_t>(id)] = TaskRef{};
    }
  }
  void trace_event(metrics::TraceEventKind kind, JobId job, TaskId task,
                   NodeId node, bool is_map, const char* detail = "",
                   double value = 0.0);

  // --- Span recording (every helper is a no-op when spans_ == nullptr) --
  /// Per-job span bookkeeping; lives beside the Job so the Job struct
  /// stays observation-free.
  struct JobSpanState {
    obs::SpanId job = obs::kInvalidSpan;
    obs::SpanId maps_phase = obs::kInvalidSpan;
    obs::SpanId shuffle_phase = obs::kInvalidSpan;
    obs::SpanId reduce_phase = obs::kInvalidSpan;
    obs::SpanId wave = obs::kInvalidSpan;
    int open_map_attempts = 0;
    int waves = 0;        // waves opened so far (names wave-1, wave-2, ...)
    int maps_phases = 1;  // re-opened barriers name maps-2, maps-3, ...
    SimTime last_shuffle_end = kTimeNever;
  };
  /// The run-root span (created on first use).
  obs::SpanId span_run_root();
  /// This job's span state, creating the job span (and, before the
  /// barrier, its map phase) on first use.
  JobSpanState* span_job_state(const Job& job);
  /// An attempt launched: open its span under the right phase, stamp the
  /// enabling policy decision, and link it to the failed attempt it
  /// retries (if any).  `primary` is the task whose work this attempt
  /// carries (== attempt for non-speculative attempts).
  void span_attempt_launched(TaskId attempt, const Job& job, NodeId node,
                             bool is_map, bool speculative, TaskId primary);
  /// An attempt ended; closes its span (idempotent: later calls for the
  /// same attempt are ignored, so teardown paths may overlap).
  void span_attempt_ended(TaskId attempt, obs::SpanOutcome outcome);
  /// Remember that `primary`'s next launch is a retry caused by this
  /// (failed/killed/lost) attempt.
  void span_mark_retry(TaskId primary, TaskId failed_attempt);
  /// Phase transitions.
  void span_barrier_crossed(const Job& job);
  void span_reduce_eligible(const Job& job);
  void span_shuffle_settled(const Job& job, TaskId attempt);
  void span_job_finished(const Job& job, obs::SpanOutcome outcome);
  /// Abort-path flush: close every open span at the abort time.
  void span_flush_aborted();
  /// Latest slot-changing decision from the policy's DecisionLog (span
  /// launch annotations); refreshed each policy period.
  void span_refresh_decisions();
  /// Cluster-total slot targets over all trackers (telemetry).
  int total_map_target() const;
  int total_reduce_target() const;
  /// Emit kSlotTargetChanged trace events when the cluster totals moved
  /// away from the given previous values.
  void trace_slot_targets(int prev_map_total, int prev_reduce_total);

  RuntimeConfig config_;
  std::unique_ptr<AllocationPolicy> policy_;
  std::unique_ptr<JobScheduler> scheduler_;
  sim::Engine engine_;
  dfs::BlockStore dfs_;
  cluster::NetworkModel network_;
  Rng rng_;

  std::vector<TaskTracker> trackers_;
  std::vector<Job> jobs_;
  /// Active-job index: indices of submitted, unfinished jobs in id order —
  /// the exact sequence the old full-scan filters produced.  Maintained
  /// incrementally (a pending min-heap drained lazily once a job's submit
  /// time is reached; erased on finish/fail) so the per-heartbeat control
  /// plane never rescans all of jobs_.  Mutable: const observers
  /// (snapshot_into) trigger the lazy drain.
  mutable std::vector<std::size_t> active_job_ids_;
  /// Not-yet-active jobs, a min-heap on (submit_time, index).
  mutable std::vector<std::pair<SimTime, std::size_t>> pending_jobs_;
  /// The active set as of `now` (drains newly-due pending jobs first).
  std::span<const std::size_t> active_jobs_now(SimTime now) const;
  /// Remove a finished/failed job from the active index.
  void deactivate_job(JobId id);
  /// Dense id -> ref table (see find_task_ref above).
  std::vector<TaskRef> task_refs_;
  /// One incremental compute solver per worker node: across consecutive
  /// ticks a node's occupancy and loads are usually unchanged, so the
  /// per-tick solve is answered from the cache.
  std::vector<cluster::ComputeModel> node_models_;
  /// Per-tick scratch, hoisted so the fluid tick allocates nothing in
  /// steady state.  The SoA ref arrays are rebuilt once per tick in node
  /// order (the "one pass over the dense task-ref vector"): every later
  /// tick stage indexes them instead of re-resolving ids through hash maps
  /// — hot fields (task/job pointers) split from cold spec data.
  struct TickScratch {
    // Running tasks, resolved once, node order (SoA).
    std::vector<TaskId> map_id, red_id;
    std::vector<MapTask*> map_task;
    std::vector<ReduceTask*> red_task;
    std::vector<Job*> map_job, red_job;
    std::vector<const JobSpec*> map_spec, red_spec;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> map_range, red_range;
    // Census + network + solve stages.
    std::vector<cluster::Occupancy> occ;
    /// Nodes hosting a remote-reading map this tick: their load rate caps
    /// track the per-tick network grant, so the solve can never be skipped.
    std::vector<std::uint8_t> node_has_remote;
    /// SoA indices of the tick's network participants, collected during the
    /// resolve sweep (node order): reduces mid-shuffle and maps reading a
    /// remote split.  The network stage walks these instead of re-scanning
    /// every running task.
    std::vector<std::uint32_t> shuffle_entries, remote_entries;
    std::vector<cluster::NetFlow> flows;
    std::vector<std::uint32_t> flow_entry;  // index into map_* / red_* SoA
    std::vector<std::uint8_t> flow_is_shuffle;
    std::vector<int> fetch_streams;
    std::vector<double> net_rates;
    std::vector<double> shuffle_disk_demand;
    std::vector<double> shuffle_scale;
    std::vector<cluster::BackgroundLoad> background;
    std::vector<cluster::PhaseLoad> loads;          // per node
    std::vector<std::uint32_t> load_entry;          // per node, SoA index
    std::vector<std::uint8_t> load_is_map;          // per node
    struct ComputeRate {
      std::uint32_t entry;
      bool is_map;
      double rate;
    };
    std::vector<ComputeRate> compute;  // node-ordered, all nodes
    // Completion / settle stages.
    std::vector<TaskId> finished_maps, finished_reduces;
    std::vector<TaskId> settle_primaries, settle_shadows;
    // Fault injection (collected during the resolve pass).
    std::vector<TaskId> doomed_maps, doomed_reduces;
  };
  TickScratch tick_;
  /// Guard for reusing the tick's SoA ref arrays across ticks: the arrays
  /// are a pure function of the tracker running lists (membership + order)
  /// and of the job/shadow storage those ids resolve into.  The summed
  /// tracker versions change on every launch/finish (versions only ever
  /// increment, so the sum cannot alias), and jobs_.size() catches the one
  /// pointer-invalidating mutation that bumps no version: a serving-path
  /// submit() growing jobs_.  While both match, only the phase-dependent
  /// census is re-swept; ids, pointers and ranges are reused as-is.
  std::uint64_t resolve_version_sum_ = ~std::uint64_t{0};
  std::size_t resolve_jobs_size_ = ~std::size_t{0};
  /// True when some running task's phase changed since the last census
  /// sweep (set alongside the per-node dirty marks).  While membership and
  /// every phase are unchanged and no fault injection is armed, the whole
  /// census output (occupancy, network participants, settle candidates) is
  /// provably identical to the previous tick's and the sweep is skipped.
  bool census_phase_dirty_ = true;
  /// Per-node quiescence tracking for the tick's compute solve: a node
  /// whose tracker version is unchanged (no launch/finish), with no pure
  /// phase transition flagged (node_dirty_), no remote-reading map, and
  /// bit-identical shuffle background since its last solve provably
  /// presents the same raw inputs — the cached rates are replayed without
  /// rebuilding the loads (counted as a memo hit to keep stats identical).
  std::vector<std::uint8_t> node_dirty_;
  std::vector<std::uint32_t> node_solve_version_;
  std::vector<cluster::BackgroundLoad> node_bg_prev_;
  std::vector<std::vector<double>> node_rates_cache_;
  void mark_node_dirty(NodeId node) {
    census_phase_dirty_ = true;
    if (node >= 0 && static_cast<std::size_t>(node) < node_dirty_.size()) {
      node_dirty_[static_cast<std::size_t>(node)] = 1;
    }
  }
  /// Remote-read network grants, epoch-stamped by tick so the table never
  /// needs clearing (PR 7: formerly an unordered_map rebuilt every tick).
  std::vector<double> net_grant_rate_;
  std::vector<std::uint64_t> net_grant_epoch_;
  std::uint64_t net_grant_cur_epoch_ = 0;
  /// Heartbeat-path snapshot scratch (capacity reused across heartbeats).
  ClusterStats hb_stats_;
  TaskId next_task_id_ = 0;
  int unfinished_jobs_ = 0;
  int jobs_not_yet_submitted_ = 0;

  // Cluster-wide cumulative counters (Section III-C heartbeat statistics).
  double cum_map_input_ = 0.0;
  double cum_map_output_ = 0.0;
  double cum_shuffled_ = 0.0;

  int local_map_launches_ = 0;
  int remote_map_launches_ = 0;
  int killed_map_tasks_ = 0;
  int tasks_lost_to_failures_ = 0;
  int speculative_launches_ = 0;
  int speculative_wins_ = 0;
  std::vector<bool> node_alive_;
  // --- Fault-injection state -------------------------------------------
  /// Dedicated stream for attempt-failure draws, seeded independently of
  /// rng_ so task_fail_rate == 0 reproduces fault-free runs bit-for-bit.
  Rng fault_rng_;
  /// Per-tracker heartbeat events, cancellable on node failure and
  /// re-schedulable on recovery (indexed by NodeId).
  std::vector<sim::EventId> heartbeat_events_;
  /// Attempt failures charged to each tracker (blacklist accounting).
  std::vector<int> node_attempt_failures_;
  /// Scheduled recoveries not yet fired: while > 0, an all-nodes-dead
  /// cluster waits instead of aborting the run.
  int pending_recoveries_ = 0;
  bool aborted_ = false;
  SimTime abort_time_ = 0.0;
  std::string run_failure_reason_;
  int task_attempt_failures_ = 0;
  int task_retries_ = 0;
  int failed_jobs_ = 0;
  int nodes_recovered_ = 0;
  int nodes_blacklisted_ = 0;
  // Per-node cumulative byte counters (the heartbeat statistics of §III-C).
  std::vector<double> node_map_input_;
  std::vector<double> node_map_output_;
  std::vector<double> node_shuffled_in_;
  /// Shadow attempt records in dense free-listed pools (PR 7: formerly
  /// unordered_maps keyed by attempt id).  A free slot is marked by
  /// `id == kInvalidTask`; TaskRef::shadow_slot points at the live slot.
  std::vector<MapTask> map_shadow_pool_;
  std::vector<std::int32_t> map_shadow_free_;
  std::vector<ReduceTask> reduce_shadow_pool_;
  std::vector<std::int32_t> reduce_shadow_free_;
  /// Dense primary-task -> shadow-attempt id links (kInvalidTask = none).
  std::vector<TaskId> shadow_link_;
  int speculative_reduce_launches_ = 0;
  int speculative_reduce_wins_ = 0;

  metrics::RunResult result_;
  metrics::TraceLog* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// metrics_'s instruments, bound on first use (obs::bind) so the hot
  /// paths skip the name lookup while the registered set stays the same.
  struct Instruments {
    obs::Histogram* map_duration = nullptr;
    obs::Histogram* reduce_duration = nullptr;
    obs::Counter* heartbeats = nullptr;
    obs::Counter* nodes_failed = nullptr;
    obs::Counter* nodes_recovered = nullptr;
    obs::Counter* nodes_blacklisted = nullptr;
    obs::Counter* map_attempt_failures = nullptr;
    obs::Counter* reduce_attempt_failures = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* jobs_failed = nullptr;
    obs::Counter* policy_periods = nullptr;
    obs::Counter* map_launches = nullptr;
    obs::Counter* reduce_launches = nullptr;
    obs::Counter* kills = nullptr;
    obs::Series* map_target = nullptr;
    obs::Series* reduce_target = nullptr;
    obs::Series* running_maps = nullptr;
    obs::Series* running_reduces = nullptr;
    obs::Series* pending_maps = nullptr;
    obs::Series* pending_reduces = nullptr;
    obs::Series* shuffle_in_flight = nullptr;
  } instruments_;
  // --- Span-recording state (inert while spans_ == nullptr) ------------
  obs::SpanLog* spans_ = nullptr;
  obs::SpanId run_span_ = obs::kInvalidSpan;
  /// Per-job span state, dense by JobId (state.job == kInvalidSpan means
  /// not yet created).  PR 7: formerly unordered_maps keyed by id.
  std::vector<JobSpanState> job_spans_;
  /// Open attempt spans, dense by attempt TaskId (kInvalidSpan = closed).
  std::vector<obs::SpanId> attempt_spans_;
  /// Last (open or closed) non-speculative attempt span of each primary
  /// task; retry links for re-executions of *completed* attempts.
  std::vector<obs::SpanId> last_attempt_span_;
  /// Primary task -> span of the failed/killed attempt its next launch
  /// retries; consumed at that launch (kInvalidSpan = none pending).
  std::vector<obs::SpanId> retry_parent_;
  /// Dense-vector accessors: read without growing, write grows on demand.
  static obs::SpanId span_slot_get(const std::vector<obs::SpanId>& table,
                                   TaskId id) {
    return id >= 0 && static_cast<std::size_t>(id) < table.size()
               ? table[static_cast<std::size_t>(id)]
               : obs::kInvalidSpan;
  }
  static void span_slot_set(std::vector<obs::SpanId>& table, TaskId id,
                            obs::SpanId value) {
    if (static_cast<std::size_t>(id) >= table.size()) {
      table.resize(static_cast<std::size_t>(id) + 1, obs::kInvalidSpan);
    }
    table[static_cast<std::size_t>(id)] = value;
  }
  /// Most recent slot-changing policy decision (launch annotations).
  int last_decision_id_ = -1;
  SimTime last_decision_time_ = kTimeNever;
  /// Decision-log rows already scanned by span_refresh_decisions.
  std::size_t decisions_seen_ = 0;
  std::function<void(const Job&)> on_job_finished_;
  std::vector<sim::EventId> periodic_events_;
  bool ran_ = false;
  bool stopping_ = false;
  /// Serving mode: while true the run never stops on an empty job queue.
  bool open_ = false;
};

}  // namespace smr::mapreduce
