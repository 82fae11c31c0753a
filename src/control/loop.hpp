// ControlLoop: the streaming re-optimization loop — tracker -> policy ->
// warm re-solve -> hysteresis actuator — advanced one measurement bin at
// a time.
//
//   BinObservation (loads, OD-rate estimates, failed links)
//        |
//        v
//   TrafficTracker.observe()          predict/correct per OD,
//        |                            innovation RMS + outlier gating
//        v
//   PlacementProblem(tracked task)    incumbent evaluated on the bin
//        |
//        v
//   ReoptimizePolicy.decide()         first-bin / topology / budget /
//        |  (re-solve?)               innovation / staleness
//        v
//   core::BatchSolver warm-start      from the incumbent rates, on the
//        |  (deadline-bounded)        host's runtime pool; an expired
//        v                            solve keeps the incumbent
//   Actuator.decide()                 push only when the gain clears the
//        |                            hysteresis threshold (or forced)
//        v
//   rates() — the configuration in force
//
// Every step stamps FlightRecorder events (request_id = bin) and bumps
// MetricsRegistry counters/histograms through the injected obs::Clock,
// so a served loop and its deadline decisions replay deterministically
// under a ManualClock — the integration tests run a full synthetic day
// without a single sleep.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "control/actuator.hpp"
#include "control/policy.hpp"
#include "control/tracker.hpp"
#include "core/batch_solver.hpp"
#include "core/problem.hpp"
#include "core/solver.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace netmon::control {

/// Loop configuration: the three stages plus solve bounds.
struct ControlConfig {
  TrackerConfig tracker;
  PolicyConfig policy;
  ActuatorConfig actuator;
  /// Problem assembly defaults (theta, alpha caps, ecmp); the per-bin
  /// failed set comes from the observation.
  core::ProblemOptions problem;
  /// Solver settings for re-solves (and the oracle reference).
  opt::SolverOptions solver;
  /// Budget for one re-solve on the loop's clock; zero = unbounded, and
  /// a negative budget is already expired at the solver's first poll
  /// (how tests exercise the fallback under a frozen ManualClock). An
  /// expired solve is abandoned and the incumbent placement stays in
  /// force — the loop never actuates an uncertified point.
  obs::Duration solve_deadline{};
  /// Also re-solve every bin from scratch as an oracle reference
  /// (StepResult::oracle_utility). Doubles the solve work; for demos,
  /// benches, and the regret assertions in tests.
  bool track_oracle = false;
  /// When an observation carries no OD-rate estimates, reconstruct them
  /// from the link loads via estimate::tomogravity (ODs the inversion
  /// cannot see are treated as missing measurements).
  bool tomogravity_fallback = true;
};

/// One measurement bin's inputs.
struct BinObservation {
  /// Measured per-link loads (pkt/s), full link-id space.
  traffic::LinkLoads loads;
  /// Estimated task OD rates (pkt/s; kMissing = no estimate), one per
  /// task OD — typically NetFlow counts inverted through estimate::.
  /// Empty = derive from the loads via tomogravity (see config).
  std::vector<double> od_rates;
  /// Links currently down.
  routing::LinkSet failed;
};

/// Everything one step did, for callers and tests.
struct StepResult {
  /// 1-based bin number.
  int bin = 0;
  /// Tracker pass summary.
  TrackerStep tracked;
  /// Why the bin re-solved (kNone = tracked only).
  ResolveReason reason = ResolveReason::kNone;
  bool resolved = false;
  /// The re-solve hit its deadline and was abandoned.
  bool solve_expired = false;
  /// Fresh rates were pushed this bin.
  bool reconfigured = false;
  /// The push (if any) was a forced contract repair.
  bool forced = false;
  /// Fresh minus incumbent utility on this bin (when resolved).
  double utility_gain = 0.0;
  /// Utility of the configuration in force, on this bin's problem.
  double utility = 0.0;
  /// Spend of the configuration in force (packets per interval).
  double budget_used = 0.0;
  /// Every-bin oracle re-solve utility (when config.track_oracle).
  double oracle_utility = 0.0;
  /// Solver iterations spent on the re-solve (0 when not resolved).
  int solve_iterations = 0;
  /// Active monitors of the configuration in force.
  std::size_t active_monitors = 0;
  /// Problem assembly rejected the bin (e.g. a failure disconnecting a
  /// task OD): nothing changed, the incumbent stays in force.
  bool skipped = false;
};

/// Host infrastructure the loop plugs into. tenant::TenantService's
/// control_deps() hands out its own clock/metrics/recorder/pool so a
/// loop reports next to the query traffic; standalone loops (unit tests,
/// benches) may leave any of these null.
struct ControlDeps {
  /// Timestamps, solve deadlines, and latency accounting. Null = the
  /// process steady clock. Borrowed; must outlive the loop.
  const obs::Clock* clock = nullptr;
  /// Counter/histogram sink. Null = detached no-op handles.
  obs::MetricsRegistry* metrics = nullptr;
  /// Event sink (request_id = bin). Null = no events.
  obs::FlightRecorder* recorder = nullptr;
  /// Re-solve fan-out pool. Null = solve on the calling thread.
  runtime::ThreadPool* pool = nullptr;
};

/// The long-lived loop. Not thread-safe: steps are strictly sequential,
/// so feed bins from one thread (or serialize them yourself).
class ControlLoop {
 public:
  /// The graph is borrowed and must outlive the loop; the task seeds the
  /// tracker.
  ControlLoop(const topo::Graph& graph, core::MeasurementTask task,
              ControlConfig config = {}, ControlDeps deps = {});

  /// Advances the loop one measurement bin.
  StepResult step(const BinObservation& observation);

  /// The sampling rates currently in force (empty before the first
  /// successful solve).
  const sampling::RateVector& rates() const noexcept { return rates_; }
  bool have_rates() const noexcept { return have_rates_; }

  const TrafficTracker& tracker() const noexcept { return tracker_; }
  const ControlConfig& config() const noexcept { return config_; }
  const obs::Clock& clock() const noexcept { return *clock_; }

  int bins() const noexcept { return bin_; }
  int resolves() const noexcept { return resolves_; }
  int reconfigurations() const noexcept { return reconfigurations_; }
  int holds() const noexcept { return holds_; }
  int solve_expirations() const noexcept { return solve_expirations_; }

 private:
  void record(obs::ServeEvent event, std::uint64_t arg) noexcept;
  /// Observes the step latency on the injected clock.
  void finish(obs::TimePoint bin_start);
  /// OD-rate estimates for this bin: the observation's own, or the
  /// tomogravity reconstruction written into `scratch`.
  std::span<const double> measurements(const BinObservation& observation,
                                       std::vector<double>& scratch) const;
  core::PlacementSolution solve(const core::PlacementProblem& problem,
                                obs::TimePoint bin_start);

  const topo::Graph& graph_;
  ControlConfig config_;
  const obs::Clock* clock_;  // never null
  obs::MetricsRegistry* metrics_;
  obs::FlightRecorder* recorder_;
  runtime::ThreadPool* pool_;

  TrafficTracker tracker_;
  ReoptimizePolicy policy_;
  Actuator actuator_;
  core::BatchSolver solver_;
  opt::SolverWorkspace workspace_;         // caller-thread solves
  opt::SolverWorkspace oracle_workspace_;  // oracle reference solves

  sampling::RateVector rates_;
  bool have_rates_ = false;
  sampling::RateVector oracle_rates_;
  bool have_oracle_ = false;
  routing::LinkSet last_failed_;
  /// The task's routing on the intact graph (set by the first bin
  /// without failures) and under last_failed_ (reset when it changes).
  std::shared_ptr<const routing::RoutingMatrix> baseline_;
  std::shared_ptr<const routing::RoutingMatrix> routing_;

  int bin_ = 0;
  int bins_since_resolve_ = 0;
  int bins_since_push_ = 0;
  int resolves_ = 0;
  int reconfigurations_ = 0;
  int holds_ = 0;
  int solve_expirations_ = 0;

  // Metrics handles (detached no-ops without a registry).
  obs::Counter bins_total_;
  obs::Counter outliers_total_;
  obs::Counter resolves_total_;
  obs::Counter reconfigs_total_;
  obs::Counter holds_total_;
  obs::Counter solve_expired_total_;
  obs::Counter skipped_total_;
  obs::Histogram innovation_;
  obs::Histogram step_ms_;
  obs::Gauge active_monitors_;
  /// Shared solver counter family (detached without a registry).
  obs::SolverCounters solver_counters_;
};

/// Reconstructs the task ODs' rate estimates (pkt/s) from measured link
/// loads via estimate::tomogravity; ODs absent from the inversion (e.g.
/// zero-gravity-mass endpoints) come back as kMissing. The standalone
/// entry point the loop's fallback uses — callers with real NetFlow
/// estimates pass BinObservation::od_rates instead.
std::vector<double> od_rates_from_tomogravity(
    const topo::Graph& graph, const traffic::LinkLoads& loads,
    const routing::LinkSet& failed, const core::MeasurementTask& task);

}  // namespace netmon::control
