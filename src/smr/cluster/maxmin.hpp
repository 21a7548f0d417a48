// Generic max-min fair allocation with multi-resource demands
// ("progressive filling" / water-filling).
//
// Each flow i consumes weight w_{i,r} units of resource r per unit of its
// own rate, and may additionally carry a per-flow rate cap.  One use may
// cover a contiguous run of resources at one weight (ResourceUse::count):
// a shuffle flow pulling from every transmit port lists them as one entry,
// and the water-fill adds its weight to the run in one contiguous loop
// instead of one scattered add per listed resource.  The allocator
// raises all uncapped, unfrozen flow rates at the same pace; whenever a
// resource saturates, every flow using it freezes at the current level.
// This is the standard fluid model for fair CPU scheduling, disk sharing
// and per-port network sharing, and is used by both the per-node compute
// solver and the cluster-wide shuffle solver.
//
// Two entry points:
//   * max_min_allocate() — the reference ("oracle") implementation.  Kept
//     deliberately simple; the property suite and the incremental solver
//     are both validated against it.
//   * MaxMinSolver — a stateful solver for callers that re-solve the same
//     (slowly changing) problem every simulation tick.  It caches the last
//     solution and skips the water-filling pass entirely when the inputs
//     are unchanged, or when only non-binding rate caps moved (the common
//     shuffle case: caps track task backlogs while the network is the
//     actual bottleneck).  A full solve whose caps are feasible with a
//     margin (no resource can bind: the fetch-cap-bound shuffle) returns
//     the caps after one O(uses) pass instead of one water-fill round per
//     cap level.  Every path is bit-for-bit identical to the oracle — see
//     docs/PERF.md for the dirtiness rules, the feasible-cap argument and
//     why partial per-resource re-solving was rejected.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smr/common/types.hpp"

namespace smr::cluster {

/// A block of resource uses: the run [resource, resource + count), each
/// resource at `weight`.  Exactly `count` single uses in ascending order:
/// every covered resource gets the same `+= weight` at the same point of
/// the same flow-ordered sum, so solving with runs is bitwise the same as
/// solving with the runs expanded.
struct ResourceUse {
  /// Index into the capacities array (the run's first resource).
  int resource = 0;
  /// Units of each covered resource consumed per unit of flow rate.
  double weight = 1.0;
  /// Run length (>= 1); the run must end inside the capacities array.
  int count = 1;

  friend bool operator==(const ResourceUse&, const ResourceUse&) = default;
};

struct FlowDemand {
  /// Upper bound on this flow's rate (use kNoCap for none).
  double rate_cap = 0.0;
  /// Resources this flow consumes, with weights.  Empty means the flow is
  /// only limited by its cap.
  std::vector<ResourceUse> uses;

  friend bool operator==(const FlowDemand&, const FlowDemand&) = default;
};

inline constexpr double kNoCap = -1.0;

/// Compute the max-min fair rates.  `capacities[r]` is the total capacity of
/// resource r (>= 0).  Returns one rate per flow (>= 0).  Weights must be
/// >= 0; zero-capacity resources freeze their users at rate 0.
std::vector<double> max_min_allocate(std::span<const double> capacities,
                                     std::span<const FlowDemand> flows);

/// Stateful incremental re-solver.  One instance per recurring problem
/// (e.g. one per simulated node, one per network model); NOT thread-safe.
class MaxMinSolver {
 public:
  struct Stats {
    /// Total solve() calls.
    std::uint64_t calls = 0;
    /// Calls answered from the cache because nothing changed.
    std::uint64_t cache_hits = 0;
    /// Calls answered from the cache because only provably non-binding
    /// rate caps changed (see solve() for the exact rule).
    std::uint64_t cap_fast_hits = 0;
    /// Calls that ran the full water-filling pass.
    std::uint64_t full_solves = 0;
    /// Full solves answered by the feasible-cap short-circuit (a subset of
    /// full_solves; see waterfill()).
    std::uint64_t cap_feasible_solves = 0;
  };

  /// Solve (or re-use the cached solution of) the max-min problem.  The
  /// returned reference is invalidated by the next solve() call.
  ///
  /// Results are bit-identical to max_min_allocate(capacities, flows) in
  /// every case:
  ///   1. Inputs identical to the previous call — return the cached rates.
  ///   2. Same capacities/uses and only rate caps changed, where every
  ///      changed cap belongs to a resource-frozen flow and keeps a strict
  ///      epsilon margin above that flow's rate — the water-filling delta
  ///      sequence is provably unchanged, so the cached rates are returned.
  ///   3. Anything else — full re-solve (identical arithmetic to the
  ///      oracle, with scratch buffers reused across calls), or the caps
  ///      themselves when they are feasible with a margin, which the
  ///      water-fill would provably return.
  const std::vector<double>& solve(std::span<const double> capacities,
                                   std::span<const FlowDemand> flows);

  const Stats& stats() const { return stats_; }

  /// Drop the cached solution (tests; also useful after mutating shared
  /// state the solver cannot see).
  void invalidate() { valid_ = false; }

 private:
  bool cache_usable(std::span<const double> capacities,
                    std::span<const FlowDemand> flows, bool& caps_only) const;
  bool caps_feasible();
  void waterfill();

  // Cached problem + solution.  The problem is flows_[0, nflows_); the
  // storage never shrinks, so a smaller tick keeps the `uses` buffers of
  // the flows beyond it for the next larger one.
  std::vector<double> capacities_;
  std::vector<FlowDemand> flows_;
  std::size_t nflows_ = 0;
  std::vector<double> rates_;
  /// frozen_by_cap_[i]: flow i's final rate equals (was clamped to) its
  /// cap, so any cap change invalidates it.  Resource-frozen flows admit
  /// the cap-slack fast path instead.
  std::vector<bool> frozen_by_cap_;
  /// The last solve hit the degenerate all-blocked branch; be conservative
  /// and never fast-path on top of it.
  bool degenerate_ = false;
  bool valid_ = false;

  // Water-filling scratch (reused across solves to avoid reallocation).
  std::vector<double> remaining_;
  std::vector<double> saturated_below_;
  std::vector<double> sumw_;
  std::vector<std::uint32_t> active_;
  // Resource -> positive-weight users (CSR) and per-flow "uses an empty
  // resource" marks, rebuilt once per water-fill.
  std::vector<std::uint32_t> user_begin_;
  std::vector<std::uint32_t> users_;
  std::vector<char> on_empty_;

  Stats stats_;
};

}  // namespace smr::cluster
