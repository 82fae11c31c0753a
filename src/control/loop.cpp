#include "control/loop.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "core/reoptimize.hpp"
#include "estimate/tomogravity.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace netmon::control {

namespace {

core::BatchOptions make_batch_options(const ControlConfig& config,
                                      const ControlDeps& deps) {
  core::BatchOptions options;
  options.threads = 1;
  options.solver = config.solver;
  options.metrics = deps.metrics;
  return options;
}

}  // namespace

std::vector<double> od_rates_from_tomogravity(
    const topo::Graph& graph, const traffic::LinkLoads& loads,
    const routing::LinkSet& failed, const core::MeasurementTask& task) {
  const estimate::TomogravityResult result =
      estimate::tomogravity(graph, loads, failed);
  std::vector<double> out(task.ods.size(), kMissing);
  for (std::size_t k = 0; k < task.ods.size(); ++k) {
    // demand_for() returns 0 for ODs the inversion dropped (e.g. a
    // zero-gravity-mass external endpoint): no estimate, not "rate 0".
    const double rate = traffic::demand_for(result.matrix, task.ods[k]);
    if (rate > 0.0) out[k] = rate;
  }
  return out;
}

ControlLoop::ControlLoop(const topo::Graph& graph, core::MeasurementTask task,
                         ControlConfig config, ControlDeps deps)
    : graph_(graph),
      config_(std::move(config)),
      clock_(deps.clock != nullptr ? deps.clock : &obs::Clock::system()),
      metrics_(deps.metrics),
      recorder_(deps.recorder),
      pool_(deps.pool),
      tracker_(task, config_.tracker),
      policy_(config_.policy),
      actuator_(config_.actuator),
      solver_(make_batch_options(config_, deps)) {
  if (metrics_ != nullptr) {
    bins_total_ = metrics_->counter("netmon_control_bins_total",
                                    "Measurement bins stepped");
    outliers_total_ =
        metrics_->counter("netmon_control_outliers_total",
                          "Measurements rejected by the innovation gate");
    resolves_total_ = metrics_->counter("netmon_control_resolves_total",
                                        "Re-solves completed");
    reconfigs_total_ =
        metrics_->counter("netmon_control_reconfigurations_total",
                          "Placements pushed to the network");
    holds_total_ =
        metrics_->counter("netmon_control_holds_total",
                          "Fresh optima held back by hysteresis");
    solve_expired_total_ =
        metrics_->counter("netmon_control_solve_expired_total",
                          "Re-solves abandoned on their deadline");
    skipped_total_ =
        metrics_->counter("netmon_control_skipped_bins_total",
                          "Bins whose problem assembly was rejected");
    innovation_ = metrics_->histogram(
        "netmon_control_innovation",
        {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0},
        "Per-bin normalized innovation RMS across the task");
    step_ms_ = metrics_->histogram(
        "netmon_control_step_ms",
        {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0},
        "Wall time of one loop step (track+decide+solve+actuate)");
    active_monitors_ = metrics_->gauge("netmon_control_active_monitors",
                                       "Monitors in the running placement");
    // The re-solve path reports into the shared solver counter family
    // (same cells the serving layer's batch solver bumps — registration
    // is idempotent).
    solver_counters_ = obs::register_solver_counters(*metrics_);
  }
}

void ControlLoop::record(obs::ServeEvent event, std::uint64_t arg) noexcept {
  if (recorder_ != nullptr) {
    recorder_->record(event, static_cast<std::uint64_t>(bin_), arg,
                      clock_->now());
  }
}

std::span<const double> ControlLoop::measurements(
    const BinObservation& observation, std::vector<double>& scratch) const {
  if (!observation.od_rates.empty()) {
    NETMON_REQUIRE(observation.od_rates.size() == tracker_.od_count(),
                   "BinObservation::od_rates size must equal the task's "
                   "OD count");
    return observation.od_rates;
  }
  if (config_.tomogravity_fallback) {
    scratch = od_rates_from_tomogravity(graph_, observation.loads,
                                        observation.failed, tracker_.task());
  } else {
    scratch.assign(tracker_.od_count(), kMissing);
  }
  return scratch;
}

core::PlacementSolution ControlLoop::solve(
    const core::PlacementProblem& problem, obs::TimePoint bin_start) {
  opt::SolverOptions options = config_.solver;
  options.counters = solver_counters_;
  if (config_.solve_deadline != obs::Duration::zero()) {
    // Deadline on the injected clock, composed over any caller hook. A
    // non-positive budget is already expired at the first poll — the
    // deterministic way to exercise the fallback path under a frozen
    // ManualClock.
    const obs::TimePoint deadline = bin_start + config_.solve_deadline;
    auto base = options.should_stop;
    options.should_stop = [this, deadline,
                           base = std::move(base)](int iterations) {
      if (base && base(iterations)) return true;
      return clock_->now() >= deadline;
    };
  }
  if (pool_ != nullptr) {
    core::BatchItem item;
    item.problem = &problem;
    item.warm = have_rates_ ? &rates_ : nullptr;
    item.solver = &options;
    auto solutions = solver_.solve_items(
        *pool_, std::span<const core::BatchItem>(&item, 1));
    return std::move(solutions.front());
  }
  if (have_rates_) {
    return core::resolve_warm(problem, rates_, options, &workspace_);
  }
  return core::solve_placement(problem, options, &workspace_);
}

StepResult ControlLoop::step(const BinObservation& observation) {
  const obs::TimePoint bin_start = clock_->now();
  StepResult out;
  out.bin = ++bin_;
  ++bins_since_resolve_;
  ++bins_since_push_;
  bins_total_.inc();

  // 1. Track: predict/correct every OD on this bin's estimates.
  std::vector<double> scratch;
  out.tracked = tracker_.observe(measurements(observation, scratch));
  outliers_total_.inc(static_cast<std::uint64_t>(out.tracked.outliers));
  innovation_.observe(out.tracked.innovation_rms);
  record(obs::ServeEvent::kControlTrack,
         static_cast<std::uint64_t>(out.tracked.outliers));

  // 2. Topology: compare the bin's failed set against the last one.
  const bool topology_changed = observation.failed != last_failed_;
  if (topology_changed) {
    last_failed_ = observation.failed;
    routing_ = nullptr;
    record(obs::ServeEvent::kControlTopology, observation.failed.size());
  }

  // 3. Assemble this bin's problem from the tracked task, starting from
  // the routing of the bin's topology when an earlier bin built it, and
  // otherwise from the intact-graph baseline (only rows crossing the
  // failed links re-route). A bin the assembly rejects (a failure
  // disconnecting a task OD, a dead load on a candidate link) changes
  // nothing: the incumbent stays in force and the loop retries next bin.
  std::optional<core::PlacementProblem> problem;
  core::ProblemOptions problem_options = config_.problem;
  problem_options.failed = observation.failed;
  try {
    problem.emplace(graph_, tracker_.tracked_task(), observation.loads,
                    problem_options, routing_ ? routing_ : baseline_);
    routing_ = problem->shared_routing();
    if (!baseline_ && observation.failed.empty()) baseline_ = routing_;
  } catch (const Error&) {
    out.skipped = true;
    skipped_total_.inc();
    finish(bin_start);
    return out;
  }

  // 4. The incumbent placement, priced on this bin's problem.
  double utility = 0.0;
  double budget_used = 0.0;
  std::size_t active = 0;
  if (have_rates_) {
    const core::PlacementSolution incumbent =
        core::evaluate_rates(*problem, rates_);
    utility = incumbent.total_utility;
    budget_used = incumbent.budget_used;
    active = incumbent.active_monitors.size();
  }

  // 5. Decide whether this bin re-solves at all.
  PolicyInput policy_input;
  policy_input.bins_since_resolve = bins_since_resolve_;
  policy_input.have_incumbent = have_rates_;
  policy_input.topology_changed = topology_changed;
  policy_input.innovation_rms = out.tracked.innovation_rms;
  policy_input.budget_used = budget_used;
  policy_input.theta = problem->theta();
  out.reason = policy_.decide(policy_input);

  if (out.reason != ResolveReason::kNone) {
    record(obs::ServeEvent::kControlResolve,
           static_cast<std::uint64_t>(out.reason));
    core::PlacementSolution fresh = solve(*problem, bin_start);
    out.solve_iterations = fresh.iterations;
    if (fresh.status == opt::SolveStatus::kCancelled) {
      // Deadline fired mid-solve: the point is feasible but uncertified,
      // so the incumbent stays in force and the trigger re-fires next
      // bin (bins_since_resolve_ keeps growing).
      out.solve_expired = true;
      ++solve_expirations_;
      solve_expired_total_.inc();
      record(obs::ServeEvent::kControlSolveExpired,
             static_cast<std::uint64_t>(fresh.iterations));
    } else {
      out.resolved = true;
      ++resolves_;
      resolves_total_.inc();
      bins_since_resolve_ = 0;

      // 6. Hysteresis: push only when the gain earns the churn (or the
      // push repairs a broken contract).
      ActuationInput actuation_input;
      actuation_input.incumbent_utility = utility;
      actuation_input.fresh_utility = fresh.total_utility;
      actuation_input.forced = !have_rates_ ||
                               out.reason == ResolveReason::kTopology ||
                               out.reason == ResolveReason::kBudget;
      actuation_input.bins_since_push = bins_since_push_;
      const Actuation actuation = actuator_.decide(actuation_input);
      out.utility_gain = actuation.utility_gain;
      out.forced = actuation.forced;
      if (actuation.push) {
        out.reconfigured = true;
        utility = fresh.total_utility;
        budget_used = fresh.budget_used;
        active = fresh.active_monitors.size();
        rates_ = std::move(fresh.rates);
        have_rates_ = true;
        bins_since_push_ = 0;
        ++reconfigurations_;
        reconfigs_total_.inc();
        record(obs::ServeEvent::kControlReconfigure,
               static_cast<std::uint64_t>(active));
      } else {
        ++holds_;
        holds_total_.inc();
        record(obs::ServeEvent::kControlHold, 0);
      }
    }
  }

  out.utility = utility;
  out.budget_used = budget_used;
  out.active_monitors = active;
  active_monitors_.set(static_cast<double>(active));

  // 7. Oracle reference: the every-bin re-solve the actuated placement
  // is measured against (warm from the oracle's own previous optimum, so
  // the comparison isolates staleness + hysteresis, not solver effort).
  if (config_.track_oracle) {
    core::PlacementSolution oracle =
        have_oracle_ ? core::resolve_warm(*problem, oracle_rates_,
                                          config_.solver, &oracle_workspace_)
                     : core::solve_placement(*problem, config_.solver,
                                             &oracle_workspace_);
    out.oracle_utility = oracle.total_utility;
    oracle_rates_ = std::move(oracle.rates);
    have_oracle_ = true;
  }

  finish(bin_start);
  return out;
}

void ControlLoop::finish(obs::TimePoint bin_start) {
  const obs::Duration elapsed = clock_->now() - bin_start;
  step_ms_.observe(
      std::chrono::duration<double, std::milli>(elapsed).count());
}

}  // namespace netmon::control
