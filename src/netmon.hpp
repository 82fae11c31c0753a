// Umbrella header for the netmon library.
//
// netmon reproduces "Reformulating the Monitor Placement Problem: Optimal
// Network-Wide Sampling" (Cantieni, Iannaccone, Barakat, Diot, Thiran —
// CoNEXT 2006): given a network where every link can host a router-
// embedded monitor, decide which monitors to activate and at which
// sampling rate, maximizing the utility of a measurement task under a
// network-wide resource budget.
//
// Typical use:
//   auto scenario = netmon::core::make_geant_scenario();
//   auto problem  = netmon::core::make_problem(scenario, {.theta = 1e5});
//   auto solution = netmon::core::solve_placement(problem);
#pragma once

#include "bgp/rib.hpp"           // IWYU pragma: export
#include "control/control.hpp"   // IWYU pragma: export
#include "core/approx.hpp"       // IWYU pragma: export
#include "core/batch_solver.hpp" // IWYU pragma: export
#include "core/config_gen.hpp"   // IWYU pragma: export
#include "core/exact_rate.hpp"   // IWYU pragma: export
#include "core/maximin.hpp"      // IWYU pragma: export
#include "core/problem.hpp"      // IWYU pragma: export
#include "core/reoptimize.hpp"   // IWYU pragma: export
#include "core/report.hpp"       // IWYU pragma: export
#include "core/scale_scenario.hpp"      // IWYU pragma: export
#include "core/scenario.hpp"     // IWYU pragma: export
#include "core/sensitivity.hpp"  // IWYU pragma: export
#include "core/solver.hpp"       // IWYU pragma: export
#include "core/strategies.hpp"   // IWYU pragma: export
#include "core/task.hpp"         // IWYU pragma: export
#include "core/two_phase.hpp"    // IWYU pragma: export
#include "core/utility.hpp"      // IWYU pragma: export
#include "estimate/accuracy.hpp" // IWYU pragma: export
#include "estimate/flow_inversion.hpp"  // IWYU pragma: export
#include "estimate/heavy_hitters.hpp"   // IWYU pragma: export
#include "estimate/tomogravity.hpp"     // IWYU pragma: export
#include "ingest/ingest.hpp"     // IWYU pragma: export
#include "isis/lsdb.hpp"         // IWYU pragma: export
#include "linalg/sparse.hpp"     // IWYU pragma: export
#include "linalg/workspace.hpp"  // IWYU pragma: export
#include "netflow/adaptive.hpp"  // IWYU pragma: export
#include "netflow/pipeline.hpp"  // IWYU pragma: export
#include "netflow/sample_and_hold.hpp"  // IWYU pragma: export
#include "netflow/v5_codec.hpp"  // IWYU pragma: export
#include "obs/obs.hpp"           // IWYU pragma: export
#include "opt/barrier.hpp"       // IWYU pragma: export
#include "opt/gradient_projection.hpp"  // IWYU pragma: export
#include "opt/projected_ascent.hpp"     // IWYU pragma: export
#include "routing/routing_matrix.hpp"   // IWYU pragma: export
#include "runtime/runtime.hpp"   // IWYU pragma: export
#include "sampling/simulation.hpp"      // IWYU pragma: export
#include "serve/serve.hpp"       // IWYU pragma: export
#include "tenant/tenant.hpp"   // IWYU pragma: export
#include "sampling/trajectory.hpp"      // IWYU pragma: export
#include "telemetry/snmp.hpp"    // IWYU pragma: export
#include "topo/abilene.hpp"      // IWYU pragma: export
#include "topo/geant.hpp"        // IWYU pragma: export
#include "topo/hierarchical.hpp" // IWYU pragma: export
#include "topo/io.hpp"           // IWYU pragma: export
#include "traffic/fanout.hpp"    // IWYU pragma: export
#include "traffic/flow_generator.hpp"   // IWYU pragma: export
#include "traffic/gravity.hpp"   // IWYU pragma: export
#include "traffic/variation.hpp" // IWYU pragma: export
#include "util/error.hpp"         // IWYU pragma: export
