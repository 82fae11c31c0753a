// Request execution helpers: validate, expand into PlacementProblems,
// and assemble the typed Response. They take the model as an explicit
// ModelView (tenant::TenantService passes each request's pinned tenant
// snapshot), so a request answered against the same view yields the
// same Response bits as a direct solve of the same problem.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>

#include "core/problem.hpp"
#include "core/task.hpp"
#include "obs/clock.hpp"
#include "opt/gradient_projection.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "topo/graph.hpp"
#include "traffic/link_load.hpp"

namespace netmon::serve {

/// A borrowed, immutable network model a request resolves against. All
/// pointers are non-null and must outlive any use of the view (the
/// tenant layer pins the snapshot that owns them for the request's
/// lifetime).
struct ModelView {
  const topo::Graph* graph = nullptr;
  const core::MeasurementTask* task = nullptr;
  const traffic::LinkLoads* loads = nullptr;
  /// Problem-assembly defaults; a request's theta / default_alpha /
  /// failed override per query.
  const core::ProblemOptions* defaults = nullptr;
  /// The task's routing under the defaults: the baseline every problem
  /// of a request starts from (see PlacementProblem's constructor).
  const std::shared_ptr<const routing::RoutingMatrix>* routing = nullptr;
};

/// Validation error for `request` against `model`, or empty when
/// admissible. Pure; safe from any thread.
std::string validate_request(const ModelView& model, const Request& request);

/// The model defaults with the request's overrides applied (theta,
/// default_alpha, failed links).
core::ProblemOptions request_problem_options(const ModelView& model,
                                             const Request& request);

/// Expands `request` into its PlacementProblems, appended to `problems` (a
/// deque: stable addresses while growing), each starting from the model's
/// baseline routing: only failures beyond the defaults re-route, and a theta
/// sweep routes once for all its points. Returns how many problems were
/// appended. Throws netmon::Error when assembly rejects the query (e.g. a
/// failure set that disconnects a task OD pair); the caller answers
/// kBadRequest and must not reference the partial expansion.
std::size_t expand_request(const ModelView& model, const Request& request,
                           std::deque<core::PlacementProblem>& problems);

/// Layers the request's deadline / iteration-budget cancellation hook on
/// a copy of `base`. `deadline` is the absolute admission deadline
/// (time_point::max() = none); `clock` is the same injected clock the
/// dequeue expiry check uses, so the two can never disagree.
opt::SolverOptions request_solver_options(const opt::SolverOptions& base,
                                          const Request& request,
                                          ServeClock::time_point deadline,
                                          const obs::Clock* clock);

/// The per-kind Response payload assembled from the request's solved
/// slice, plus what the caller's stats/flight-recorder paths need to
/// know about cancellation.
struct AssembledResponse {
  Response response;
  /// True when any solution in the slice was cancelled mid-solve
  /// (deadline or iteration budget); response.status/error are already
  /// set accordingly.
  bool cancelled = false;
  /// Iteration count of the (last) cancelled solution, for recording.
  int cancelled_iterations = 0;
};

/// Builds the typed Response for `request` from its solutions. Consumes
/// the slice (solutions are moved out). Transport metadata (batch_size,
/// queue_ms, solve_ms) and tenant fields are the caller's to fill.
AssembledResponse assemble_response(const Request& request,
                                    std::span<core::PlacementSolution> slice);

/// Milliseconds between two serve-clock stamps.
double ms_between(ServeClock::time_point from, ServeClock::time_point to);

}  // namespace netmon::serve
