// The placement query service's request/response schema.
//
// Operationally the paper's optimizer is a service: an operator (or an
// SDN controller) submits what-if placement queries — theta sweeps,
// failure scenarios, task changes — and needs answers under a latency
// budget. A Request is pure data (no pointers into the model), so it can
// cross a wire (serve/wire.hpp) unchanged; the service resolves it
// against the network model its tenant published (graph, task, loads).
// Every query is answered by a pure function of (model,
// request), which is what makes the serving layer's batching
// deterministic: responses are bit-identical no matter how requests were
// coalesced or how many worker threads ran them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "routing/routing_matrix.hpp"
#include "sampling/effective_rate.hpp"
#include "topo/graph.hpp"

namespace netmon::serve {

/// What the client is asking for.
enum class RequestKind : std::uint8_t {
  /// One placement solve at the request's theta / failure set.
  kSolve = 0,
  /// A fleet of failure what-ifs: one solve per scenario, all warm-started
  /// from the same running rates (core::resolve_warm semantics).
  kWhatIfBatch = 1,
  /// A theta sweep: one solve per theta, reported as (theta, utility,
  /// lambda, active monitor count) points — the Fig. 2 / budget
  /// sensitivity shape.
  kThetaSweep = 2,
  /// One solve plus the per-OD accuracy report (predicted accuracy,
  /// effective rates) — the paper's Table I columns.
  kAccuracyReport = 3,
};

/// A placement query. Fields irrelevant to the kind are ignored.
struct Request {
  /// Client-chosen correlation id, echoed in the Response.
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kSolve;
  /// Tenant the query resolves against. tenant::TenantService resolves
  /// it in its TenantRegistry (empty = the registry's default tenant)
  /// and rejects unknown names.
  std::string tenant;
  /// System capacity theta; 0 = the tenant model's default.
  double theta = 0.0;
  /// Per-link rate cap; 0 = the tenant model's default.
  double default_alpha = 0.0;
  /// Links assumed failed for this query (routing recomputes around
  /// them). Applies to every kind.
  std::vector<topo::LinkId> failed;
  /// kWhatIfBatch: additional failure scenarios, one solve per entry
  /// (each entry's links are failed on top of `failed`).
  std::vector<std::vector<topo::LinkId>> what_if;
  /// kThetaSweep: the thetas to solve at (must be positive).
  std::vector<double> thetas;
  /// Warm-start rates (full link-id space, e.g. the running
  /// configuration); empty = cold start.
  sampling::RateVector warm_start;
  /// Latency budget in milliseconds from admission; 0 = none. Checked at
  /// dequeue and between solver iterations (SolverOptions::should_stop).
  std::uint32_t deadline_ms = 0;
  /// Deterministic compute budget: cancel any solve of this request after
  /// this many solver iterations; 0 = none. Unlike a wall-clock deadline
  /// this truncates identically on every machine and thread count.
  std::uint32_t iteration_budget = 0;
};

/// Typed outcome of a query. Requests are never dropped silently: every
/// admitted request gets exactly one Response, and rejected ones get a
/// typed rejection at submit time.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  /// Backpressure: the bounded queue was full at submit time.
  kRejectedQueueFull = 1,
  /// The deadline expired in-queue or mid-solve; `error` says which and
  /// mid-solve responses keep the truncated (feasible) solutions.
  kDeadlineExpired = 2,
  /// The request failed validation or problem assembly; `error` explains.
  kBadRequest = 3,
  /// The server was stopped before the request could be served.
  kShutdown = 4,
  /// The tenant's admission quota (token bucket or max in-flight) was
  /// exhausted at submit time; `error` says which.
  kRejectedQuota = 5,
};

/// How the tenant solve cache participated in answering a request.
enum class CacheOutcome : std::uint8_t {
  /// Served without cache involvement (cache disabled, or nothing
  /// usable was cached).
  kNone = 0,
  /// Exact fingerprint hit: the stored Response returned bit-identically
  /// without invoking the solver.
  kHit = 1,
  /// Miss, but the solve was warm-started from the nearest cached
  /// solution's rates.
  kWarmStart = 2,
};

const char* to_string(ResponseStatus status) noexcept;
const char* to_string(RequestKind kind) noexcept;
const char* to_string(CacheOutcome outcome) noexcept;

/// One point of a theta-sweep answer.
struct ThetaPoint {
  double theta = 0.0;
  double total_utility = 0.0;
  /// Budget shadow price dU*/dtheta at this theta.
  double lambda = 0.0;
  std::uint32_t active_monitors = 0;

  friend bool operator==(const ThetaPoint&, const ThetaPoint&) = default;
};

/// One OD row of an accuracy-report answer.
struct OdAccuracy {
  routing::OdPair od;
  double expected_packets = 0.0;
  double rho_approx = 0.0;
  double rho_exact = 0.0;
  /// Analytic prediction of the paper's measured accuracy column.
  double predicted_accuracy = 0.0;

  friend bool operator==(const OdAccuracy&, const OdAccuracy&) = default;
};

/// The answer to one Request.
struct Response {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kSolve;
  ResponseStatus status = ResponseStatus::kOk;
  /// Human-readable detail for non-kOk statuses.
  std::string error;
  /// kSolve / kAccuracyReport: one solution. kWhatIfBatch: solutions[i]
  /// answers what_if[i]. Deadline-truncated solves are included with
  /// opt::SolveStatus::kCancelled.
  std::vector<core::PlacementSolution> solutions;
  /// kThetaSweep: one point per requested theta.
  std::vector<ThetaPoint> sweep;
  /// kAccuracyReport: one row per task OD pair.
  std::vector<OdAccuracy> accuracy;
  /// Tenant that served the request (echo of Request::tenant after
  /// default resolution; empty on single-tenant servers).
  std::string tenant;
  /// Solve-cache participation (tenant::SolveCache).
  CacheOutcome cache = CacheOutcome::kNone;
  /// Transport metadata (not covered by the determinism guarantee): how
  /// many requests rode in this request's dispatch batch, and wall-clock
  /// queue / solve time.
  std::uint32_t batch_size = 0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
};

/// Completion channel of an asynchronous submission: invoked exactly once
/// with the typed Response, possibly on a dispatcher thread. Must be
/// copyable (capture shared state via shared_ptr).
using ResponseCallback = std::function<void(Response&&)>;

}  // namespace netmon::serve
