// Workload characterisation of a MapReduce job.
//
// For the purposes of slot management a job is fully described by how much
// data flows through each sub-phase and what each byte costs in CPU, disk
// and memory.  The PUMA catalogue (smr::workload) instantiates these specs
// with parameters following the published benchmark characterisation.
//
// Sub-phases (Section II-A1 of the paper):
//   map task    = MAP (read + user map fn + in-memory sort) then
//                 SPILL (sort/spill/merge + optional combine) — progress is
//                 measured in input bytes and output bytes respectively.
//   reduce task = SHUFFLE (fetch its partition of every map output),
//                 SORT (external merge of fetched runs),
//                 REDUCE (user reduce fn + replicated output write).
#pragma once

#include <cstdint>
#include <string>

#include "smr/common/error.hpp"
#include "smr/common/types.hpp"

namespace smr::mapreduce {

/// Most map tasks, and most reduce tasks, one job may have;
/// JobSpec::validate() rejects larger jobs with a message.  A job's task
/// records, block placement and tick scratch all grow with its task
/// counts, and unbounded sizes (a hostile `input_gib=1e9` workload row)
/// would otherwise run the process out of memory.  2^20 maps is 128 TiB
/// at the default 128 MiB split, some 4 000 times the paper's largest job;
/// a job at the cap takes about 220 MB.
inline constexpr std::int64_t kMaxTasks = std::int64_t{1} << 20;

/// The largest input, in GiB, whose map count stays within kMaxTasks at
/// the default split size: the bound job-list readers check before
/// converting a size to bytes.
inline constexpr double kMaxInputGib = static_cast<double>(kMaxTasks) * 128.0 / 1024.0;

struct JobSpec {
  std::string name = "job";

  /// Total input data in HDFS.
  Bytes input_size = 30 * kGiB;

  /// Split size (= DFS block size); one map task per split.
  Bytes split_size = 128 * kMiB;

  /// Number of reduce tasks (the paper uses 30 on a 32-reduce-slot cluster).
  int reduce_tasks = 30;

  // --- Map side ------------------------------------------------------
  /// CPU-seconds per MiB of map input (read, decode, user map, sort).
  double map_cpu_per_mib = 0.08;

  /// Map output bytes per input byte, after the combiner if any.
  double map_selectivity = 0.5;

  /// Optional combiner (paper §II-A1: "plus optionally the combine
  /// phase").  When present, the map task runs an explicit COMBINE
  /// sub-phase over the *pre-combine* output volume
  /// (map_selectivity / combiner_reduction of the input) before spilling
  /// the reduced volume.  map_selectivity remains the post-combine ratio.
  bool has_combiner = false;
  /// Post-combine bytes per pre-combine byte (< 1 means the combiner
  /// collapses records); ignored without a combiner.
  double combiner_reduction = 1.0;
  /// CPU-seconds per MiB of pre-combine output during the combine.
  double combine_cpu_per_mib = 0.04;

  /// CPU-seconds per MiB of map output during sort/spill.
  double spill_cpu_per_mib = 0.02;

  /// Disk bytes written per map-output byte (spill + merge passes).
  double spill_disk_factor = 1.2;

  /// Resident working set per map task (JVM heap, sort buffers, page
  /// cache pressure).  The dominant driver of the thrashing point.
  Bytes map_task_memory = 2 * kGiB;

  // --- Reduce side ----------------------------------------------------
  /// CPU-seconds per MiB fetched during shuffle (decompress, in-memory
  /// merge).  Accounted as background CPU load on the receiving node.
  double shuffle_cpu_per_mib = 0.012;

  /// Disk bytes written per shuffled byte on the receiver (on-disk merge
  /// segments).
  double shuffle_disk_factor = 1.0;

  /// Fetch-service ceiling per reduce task, in bytes/s.  Hadoop's shuffle
  /// moves data in many small per-map fetches with handshakes and merge
  /// pauses, so a reducer's aggregate pull rate is far below NIC line rate;
  /// this ceiling (before incast and port sharing) models that.  It is what
  /// makes high-selectivity jobs genuinely reduce-heavy: once the cluster
  /// map-output rate exceeds reduce_tasks × this cap, shuffle falls behind.
  Rate shuffle_fetch_cap = 12.0 * static_cast<double>(kMiB);

  /// CPU-seconds per MiB during the reduce-side external merge sort.
  double sort_cpu_per_mib = 0.03;

  /// Disk bytes moved per byte during the reduce-side merge.
  double sort_disk_factor = 2.0;

  /// CPU-seconds per MiB of reduce input (user reduce fn).
  double reduce_cpu_per_mib = 0.05;

  /// Final output bytes per reduce-input byte.
  double reduce_selectivity = 1.0;

  /// Disk bytes written per output byte (local replica; remote replicas go
  /// over the network and other nodes' disks — folded into this factor).
  double output_disk_factor = 2.0;

  /// Resident working set per reduce task (shuffle + merge buffers).
  Bytes reduce_task_memory = 2 * kGiB;

  /// Coefficient of variation of per-task cost jitter.  Real Hadoop task
  /// durations vary well over ±15% (data skew, JVM warm-up, stragglers);
  /// this also desynchronises task waves, without which completions arrive
  /// in lockstep bursts no real cluster exhibits.
  double duration_cv = 0.18;

  // --- Serving / SLO ---------------------------------------------------
  /// SLO class label for serving workloads ("" = unclassified); purely
  /// descriptive, carried through to per-job results and serve reports.
  std::string slo_class;

  /// Owning tenant ("" = default tenant).  The serving layer stamps it
  /// from the arrival trace; multi-tenant allocators (Karma, GameCapacity)
  /// group jobs by it and the fairness layer accounts slot-seconds per
  /// tenant.  Purely descriptive for single-tenant runs.
  std::string tenant;

  /// Completion deadline in seconds after submission (kTimeNever = none).
  /// The serving layer derives it from per-class SLO multipliers; the
  /// runtime stamps the absolute deadline on the Job at submission, which
  /// the DeadlineScheduler orders by (EDF) and the SLO metrics judge
  /// goodput against.  0 is allowed (already past due on arrival — e.g. a
  /// deferred job that exhausted its budget in the admission queue).
  SimTime relative_deadline = kTimeNever;

  // --- Derived --------------------------------------------------------
  int map_task_count() const { return static_cast<int>(map_task_count_wide()); }
  /// map_task_count() before the narrowing validate() guards.
  std::int64_t map_task_count_wide() const {
    return input_size / split_size + (input_size % split_size != 0 ? 1 : 0);
  }
  Bytes map_output_total() const {
    return static_cast<Bytes>(static_cast<double>(input_size) * map_selectivity);
  }
  /// Shuffle volume per reduce task under the paper's uniform-partition
  /// assumption (Section IV-A3).
  Bytes partition_size() const {
    return map_output_total() / reduce_tasks;
  }

  /// Map-heavy jobs shuffle little relative to their input (Section II-A2).
  bool map_heavy() const { return map_selectivity < 0.2; }

  void validate() const {
    SMR_CHECK(input_size > 0 && split_size > 0);
    SMR_CHECK_MSG(map_task_count_wide() <= kMaxTasks,
                  "job '" << name << "' needs " << map_task_count_wide()
                          << " map tasks; the cap is " << kMaxTasks);
    SMR_CHECK(reduce_tasks >= 1);
    SMR_CHECK_MSG(reduce_tasks <= kMaxTasks,
                  "job '" << name << "' has " << reduce_tasks
                          << " reduce tasks; the cap is " << kMaxTasks);
    SMR_CHECK(map_cpu_per_mib > 0 && reduce_cpu_per_mib >= 0);
    SMR_CHECK(map_selectivity >= 0 && reduce_selectivity >= 0);
    SMR_CHECK(spill_disk_factor >= 0 && sort_disk_factor >= 0);
    SMR_CHECK(map_task_memory >= 0 && reduce_task_memory >= 0);
    SMR_CHECK(duration_cv >= 0);
    SMR_CHECK(shuffle_fetch_cap > 0);
    SMR_CHECK(combiner_reduction > 0 && combiner_reduction <= 1.0);
    SMR_CHECK(combine_cpu_per_mib >= 0);
    SMR_CHECK(relative_deadline >= 0.0);
  }
};

}  // namespace smr::mapreduce
