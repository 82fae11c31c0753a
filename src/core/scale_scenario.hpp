// Internet-scale evaluation scenario: a hierarchical topology (topo/
// hierarchical) carrying capacity-proportional background traffic plus a
// gravity fan-out measurement task (traffic/fanout). This is the
// synthetic counterpart of GeantScenario for instances three orders of
// magnitude larger — thousands of nodes, 100k+ links — where the exact
// solver is exercised through the intra-solve parallel path and the
// partitioned approximation tier (core/approx).
#pragma once

#include <memory>

#include "core/problem.hpp"
#include "core/task.hpp"
#include "topo/hierarchical.hpp"
#include "traffic/fanout.hpp"
#include "traffic/link_load.hpp"

namespace netmon::core {

/// Scenario knobs.
struct ScaleScenarioOptions {
  /// Topology shape; the default is a small pod fabric usable in tests.
  /// hierarchy_scale_options() yields the 100k+-link instance.
  topo::HierarchyOptions hierarchy;
  /// Measurement-task fan-out shape.
  traffic::FanoutOptions fanout;
  /// Background transit load as a fraction of link capacity. Keeps every
  /// candidate link loaded (u_j > 0) even where no task OD travels.
  double background_utilization = 0.02;
  /// Measurement interval (paper: 5 minutes).
  double interval_sec = 300.0;
};

/// The assembled scenario. Keep it alive while problems built from it
/// are in use (they reference its graph).
struct ScaleScenario {
  topo::HierarchicalNetwork net;
  MeasurementTask task;
  /// The fan-out demands routed to produce the task's share of `loads`.
  traffic::TrafficMatrix demands;
  /// Per-link loads (pkt/s): background plus routed task demands.
  traffic::LinkLoads loads;
  /// The task's single-path routing on the intact graph: routed once,
  /// it yields the task loads, the default theta's candidate set and
  /// the baseline every problem of the scenario starts from.
  std::shared_ptr<const routing::RoutingMatrix> routing;
};

/// Builds the scenario: topology, fan-out task, routing, loads. The task
/// share of `loads` is folded from `routing` in traffic::link_loads'
/// order (source ascending, then demand order), so it is bit for bit
/// background + traffic::link_loads(graph, demands).
ScaleScenario make_scale_scenario(const ScaleScenarioOptions& options = {});

/// A theta that keeps the instance interesting: `fraction` of the maximum
/// feasible budget sum_j u_j alpha_j over the task's candidate links
/// (alpha = 1). Scale instances have no Table-I calibration, so the
/// budget must be derived from the generated loads.
double default_scale_theta(const ScaleScenario& scenario,
                           double fraction = 0.01);

/// Builds the placement problem of the scenario from its baseline
/// routing. When options.theta is unset (<= 0),
/// default_scale_theta(scenario) is used.
PlacementProblem make_problem(const ScaleScenario& scenario,
                              ProblemOptions options);

}  // namespace netmon::core
