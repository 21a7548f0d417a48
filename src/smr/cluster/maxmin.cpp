#include "smr/cluster/maxmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "smr/common/error.hpp"

namespace smr::cluster {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

/// Largest problem the feasible-cap short-circuit takes: at most this many
/// flows (so water-fill rounds) and uses (so terms of a resource's weight
/// sum).  The exactness argument (docs/PERF.md §1) needs (flows + 1) * u
/// well below kEps, u the unit roundoff; above the limit the water-fill runs.
constexpr std::size_t kFeasibleCapLimit = std::size_t{1} << 20;

/// The use's run [resource, resource + count) is non-empty and lies inside
/// [0, nr).
bool run_in_range(const ResourceUse& use, std::size_t nr) {
  return use.count >= 1 && use.resource >= 0 &&
         static_cast<std::size_t>(use.resource) + static_cast<std::size_t>(use.count) <= nr;
}

void check_use(const ResourceUse& use, std::size_t nr) {
  SMR_CHECK_MSG(run_in_range(use, nr), "flow uses unknown resources [" << use.resource
                                           << ", +" << use.count << ")");
  SMR_CHECK(use.weight >= 0.0);
}
}  // namespace

std::vector<double> max_min_allocate(std::span<const double> capacities,
                                     std::span<const FlowDemand> flows) {
  const std::size_t nr = capacities.size();
  const std::size_t nf = flows.size();

  std::vector<double> remaining(capacities.begin(), capacities.end());
  // Saturation must be judged relative to the resource's scale: capacities
  // are bytes/s (~1e8), so absolute epsilons never trigger.
  std::vector<double> saturated_below(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    SMR_CHECK_MSG(remaining[r] >= 0.0, "negative capacity for resource " << r);
    saturated_below[r] = kEps * (remaining[r] + 1.0);
  }
  for (const auto& flow : flows) {
    for (const auto& use : flow.uses) check_use(use, nr);
  }

  std::vector<double> rates(nf, 0.0);
  std::vector<bool> frozen(nf, false);

  // A flow with a zero cap, or touching an (effectively) empty resource with
  // positive weight, can never move; freeze it up front.
  auto resource_empty = [&](int r) {
    const auto idx = static_cast<std::size_t>(r);
    return remaining[idx] <= saturated_below[idx];
  };
  auto touches_empty = [&](const ResourceUse& use) {
    if (!(use.weight > 0.0)) return false;
    for (int k = 0; k < use.count; ++k) {
      if (resource_empty(use.resource + k)) return true;
    }
    return false;
  };
  std::size_t active = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const auto& flow = flows[i];
    bool dead = (flow.rate_cap != kNoCap && flow.rate_cap <= 0.0);
    for (const auto& use : flow.uses) {
      if (touches_empty(use)) dead = true;
    }
    frozen[i] = dead;
    if (!dead) ++active;
  }

  while (active > 0) {
    // Per-resource total weight over active flows.
    std::vector<double> sumw(nr, 0.0);
    double delta = kInf;
    for (std::size_t i = 0; i < nf; ++i) {
      if (frozen[i]) continue;
      const auto& flow = flows[i];
      if (flow.rate_cap != kNoCap) {
        delta = std::min(delta, flow.rate_cap - rates[i]);
      }
      for (const auto& use : flow.uses) {
        for (int k = 0; k < use.count; ++k) {
          sumw[static_cast<std::size_t>(use.resource + k)] += use.weight;
        }
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      if (sumw[r] > 0.0) delta = std::min(delta, remaining[r] / sumw[r]);
    }
    SMR_CHECK_MSG(std::isfinite(delta),
                  "max_min_allocate: unbounded flow (no cap and no finite resource)");
    delta = std::max(delta, 0.0);

    for (std::size_t i = 0; i < nf; ++i) {
      if (!frozen[i]) rates[i] += delta;
    }
    for (std::size_t r = 0; r < nr; ++r) {
      remaining[r] -= delta * sumw[r];
      if (remaining[r] < 0.0) remaining[r] = 0.0;  // numerical guard
    }

    // Freeze flows that hit their cap or a saturated resource.
    std::size_t still_active = 0;
    for (std::size_t i = 0; i < nf; ++i) {
      if (frozen[i]) continue;
      const auto& flow = flows[i];
      bool freeze = false;
      if (flow.rate_cap != kNoCap && rates[i] >= flow.rate_cap - kEps * (1.0 + flow.rate_cap)) {
        rates[i] = flow.rate_cap;
        freeze = true;
      }
      for (const auto& use : flow.uses) {
        if (touches_empty(use)) freeze = true;
      }
      frozen[i] = freeze;
      if (!freeze) ++still_active;
    }
    // Progress guarantee: if nothing froze this round, every active flow
    // must have been capless and untouched by any saturated resource, which
    // contradicts delta being finite unless delta saturated something.
    SMR_CHECK_MSG(still_active < active || delta == 0.0,
                  "max_min_allocate failed to make progress");
    if (still_active == active && delta == 0.0) {
      // Degenerate: all remaining flows blocked at zero headroom.
      for (std::size_t i = 0; i < nf; ++i) frozen[i] = true;
      still_active = 0;
    }
    active = still_active;
  }
  return rates;
}

// ---------------------------------------------------------------------------
// MaxMinSolver — incremental re-solver.
//
// Every path below must stay bit-for-bit identical to max_min_allocate();
// the property suite (tests/cluster/maxmin_property_test.cpp) checks the
// equality over randomized mutation sequences.
// ---------------------------------------------------------------------------

bool MaxMinSolver::cache_usable(std::span<const double> capacities,
                                std::span<const FlowDemand> flows,
                                bool& caps_only) const {
  caps_only = false;
  if (!valid_) return false;
  if (capacities.size() != capacities_.size() || flows.size() != nflows_) {
    return false;
  }
  if (!std::equal(capacities.begin(), capacities.end(), capacities_.begin())) {
    return false;
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].uses != flows_[i].uses) return false;
    const double cap = flows[i].rate_cap;
    if (cap == flows_[i].rate_cap) continue;
    // A rate cap moved.  The cached rates are still exact iff the flow was
    // frozen by a saturated resource (not clamped to its cap) and the new
    // cap keeps a strict epsilon margin above the flow's rate: then the cap
    // never wins the per-round delta minimisation and never trips the
    // cap-freeze test, so the whole delta sequence — and hence every rate —
    // is unchanged.  The degenerate all-blocked ending gives no such
    // guarantee, so it disables this path entirely.
    if (degenerate_ || frozen_by_cap_[i]) return false;
    if (cap != kNoCap && !(cap - rates_[i] > kEps * (1.0 + cap))) return false;
    caps_only = true;
  }
  return true;
}

const std::vector<double>& MaxMinSolver::solve(std::span<const double> capacities,
                                               std::span<const FlowDemand> flows) {
  ++stats_.calls;
  bool caps_only = false;
  if (cache_usable(capacities, flows, caps_only)) {
    if (caps_only) {
      ++stats_.cap_fast_hits;
      // Keep the cached problem in sync so the next call compares against
      // the caps the caller actually passed.
      for (std::size_t i = 0; i < flows.size(); ++i) {
        flows_[i].rate_cap = flows[i].rate_cap;
      }
    } else {
      ++stats_.cache_hits;
    }
    return rates_;
  }

  ++stats_.full_solves;
  // Invalid until the water-fill returns: a problem it rejects must throw
  // again next time, not hit the cache.
  valid_ = false;
  capacities_.assign(capacities.begin(), capacities.end());
  // Element-wise copy so each cached FlowDemand's `uses` buffer is reused.
  if (flows_.size() < flows.size()) flows_.resize(flows.size());
  nflows_ = flows.size();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows_[i].rate_cap = flows[i].rate_cap;
    flows_[i].uses.assign(flows[i].uses.begin(), flows[i].uses.end());
  }
  waterfill();
  valid_ = true;
  return rates_;
}

// Feasible-cap short-circuit: when every flow has a finite cap > 0 and
// charging every flow its cap leaves each resource with a positive-weight
// user a margin above its saturation threshold, the water-fill would raise
// the level one cap at a time, freeze every flow by its cap test (rate :=
// cap) and never saturate a resource, so the answer is the caps.  The
// margin covers the rounding of the water-fill's sums and of its
// `remaining` fold; docs/PERF.md §1 ("Feasible caps") has the argument.
// Scratch: sumw_[r] collects the charge U_r = Σ weight·cap and
// remaining_[r] the weight sum Σ weight over the positive-weight uses
// covering r — counting users, not charges, since a charge can underflow
// to 0.
bool MaxMinSolver::caps_feasible() {
  const std::size_t nr = capacities_.size();
  const std::size_t nf = nflows_;
  if (nf > kFeasibleCapLimit) return false;
  for (std::size_t i = 0; i < nf; ++i) {
    const double cap = flows_[i].rate_cap;
    if (!(cap > 0.0 && cap < kInf)) return false;  // kNoCap, <= 0, NaN, +inf
  }
  sumw_.assign(nr, 0.0);
  remaining_.assign(nr, 0.0);
  std::size_t nuses = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const double cap = flows_[i].rate_cap;
    nuses += flows_[i].uses.size();
    if (nuses > kFeasibleCapLimit) return false;
    for (const auto& use : flows_[i].uses) {
      check_use(use, nr);
      const double w = use.weight;
      if (!(w > 0.0)) continue;
      const double charge = w * cap;
      double* const charges = sumw_.data() + use.resource;
      double* const weights = remaining_.data() + use.resource;
      for (int k = 0; k < use.count; ++k) {
        charges[k] += charge;
        weights[k] += w;
      }
    }
  }
  for (std::size_t r = 0; r < nr; ++r) {
    if (!(remaining_[r] > 0.0)) continue;       // no positive-weight user
    if (!(remaining_[r] < kInf)) return false;  // the water-fill's sumw would overflow
    if (!(sumw_[r] * (1.0 + 1e-6) < capacities_[r] - 2.0 * saturated_below_[r])) return false;
  }
  return true;
}

void MaxMinSolver::waterfill() {
  const std::size_t nr = capacities_.size();
  const std::size_t nf = nflows_;
  const std::span<const FlowDemand> flows(flows_.data(), nf);

  degenerate_ = false;
  saturated_below_.resize(nr);
  for (std::size_t r = 0; r < nr; ++r) {
    SMR_CHECK_MSG(capacities_[r] >= 0.0, "negative capacity for resource " << r);
    saturated_below_[r] = kEps * (capacities_[r] + 1.0);
  }
  if (caps_feasible()) {
    ++stats_.cap_feasible_solves;
    rates_.resize(nf);
    for (std::size_t i = 0; i < nf; ++i) rates_[i] = flows[i].rate_cap;
    frozen_by_cap_.assign(nf, true);
    return;
  }
  rates_.assign(nf, 0.0);
  frozen_by_cap_.assign(nf, false);
  remaining_.assign(capacities_.begin(), capacities_.end());

  // Resource -> positive-weight users, as CSR: users_[user_begin_[r],
  // user_begin_[r + 1]) are the flows that freeze when r saturates (a run
  // lists its flow under every resource it covers).  Count into
  // user_begin_[r], prefix-sum to each list's end, then fill backwards so
  // every entry ends at its list's start.
  user_begin_.assign(nr + 1, 0);
  for (const auto& flow : flows) {
    for (const auto& use : flow.uses) {
      check_use(use, nr);
      if (!(use.weight > 0.0)) continue;
      std::uint32_t* const counts = user_begin_.data() + use.resource;
      for (int k = 0; k < use.count; ++k) ++counts[k];
    }
  }
  for (std::size_t r = 1; r <= nr; ++r) user_begin_[r] += user_begin_[r - 1];
  users_.resize(user_begin_[nr]);
  for (std::size_t i = 0; i < nf; ++i) {
    for (const auto& use : flows[i].uses) {
      if (!(use.weight > 0.0)) continue;
      std::uint32_t* const ends = user_begin_.data() + use.resource;
      for (int k = 0; k < use.count; ++k) users_[--ends[k]] = static_cast<std::uint32_t>(i);
    }
  }

  // on_empty_[i]: flow i uses an empty resource with positive weight.  An
  // active flow's resources all have positive weight sums, so `remaining`
  // changes only for them and, never growing, a resource turns empty once;
  // marking the users of each resource as it empties replaces rescanning
  // every active flow's uses in the freeze pass.
  on_empty_.assign(nf, 0);
  auto mark_users_if_empty = [&](std::size_t r) {
    if (!(remaining_[r] <= saturated_below_[r])) return;  // the oracle's test
    for (std::uint32_t u = user_begin_[r]; u < user_begin_[r + 1]; ++u) on_empty_[users_[u]] = 1;
  };
  for (std::size_t r = 0; r < nr; ++r) mark_users_if_empty(r);

  // Active flow indices, ascending — the same visit order as the oracle's
  // skip-the-frozen scans, so every floating-point accumulation happens in
  // the identical sequence.
  active_.clear();
  for (std::size_t i = 0; i < nf; ++i) {
    const auto& flow = flows[i];
    bool dead = (flow.rate_cap != kNoCap && flow.rate_cap <= 0.0);
    if (dead) frozen_by_cap_[i] = true;
    if (on_empty_[i] != 0) dead = true;
    if (!dead) active_.push_back(static_cast<std::uint32_t>(i));
  }

  sumw_.resize(nr);
  while (!active_.empty()) {
    std::fill(sumw_.begin(), sumw_.end(), 0.0);
    double delta = kInf;
    for (const std::uint32_t i : active_) {
      const auto& flow = flows[i];
      if (flow.rate_cap != kNoCap) {
        delta = std::min(delta, flow.rate_cap - rates_[i]);
      }
      // Each covered resource gets its one `+= w` in flow order, as in the
      // oracle; with the run contiguous and `w` in a local, the loop
      // vectorises.
      for (const auto& use : flow.uses) {
        double* const s = sumw_.data() + use.resource;
        const double w = use.weight;
        const int count = use.count;
        for (int k = 0; k < count; ++k) s[k] += w;
      }
    }
    for (std::size_t r = 0; r < nr; ++r) {
      if (sumw_[r] > 0.0) delta = std::min(delta, remaining_[r] / sumw_[r]);
    }
    SMR_CHECK_MSG(std::isfinite(delta),
                  "max_min_allocate: unbounded flow (no cap and no finite resource)");
    delta = std::max(delta, 0.0);

    for (const std::uint32_t i : active_) rates_[i] += delta;
    // Where sumw is 0 the oracle subtracts an exact 0 — a no-op.
    for (std::size_t r = 0; r < nr; ++r) {
      if (!(sumw_[r] > 0.0)) continue;
      remaining_[r] -= delta * sumw_[r];
      if (remaining_[r] < 0.0) remaining_[r] = 0.0;  // numerical guard
      mark_users_if_empty(r);
    }

    // Freeze flows that hit their cap or a saturated resource; stable
    // in-place compaction keeps `active_` ascending.
    const std::size_t before = active_.size();
    std::size_t out = 0;
    for (const std::uint32_t i : active_) {
      const auto& flow = flows[i];
      bool freeze = on_empty_[i] != 0;
      if (flow.rate_cap != kNoCap &&
          rates_[i] >= flow.rate_cap - kEps * (1.0 + flow.rate_cap)) {
        rates_[i] = flow.rate_cap;
        frozen_by_cap_[i] = true;
        freeze = true;
      }
      if (!freeze) active_[out++] = i;
    }
    SMR_CHECK_MSG(out < before || delta == 0.0,
                  "max_min_allocate failed to make progress");
    if (out == before && delta == 0.0) {
      // Degenerate: all remaining flows blocked at zero headroom.
      degenerate_ = true;
      active_.clear();
    } else {
      active_.resize(out);
    }
  }
}

}  // namespace smr::cluster
