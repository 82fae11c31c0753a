#include "serve/exec.hpp"

#include <chrono>
#include <cmath>
#include <iterator>
#include <utility>

#include "util/error.hpp"

namespace netmon::serve {

double ms_between(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string validate_request(const ModelView& model,
                             const Request& request) {
  const double theta =
      request.theta != 0.0 ? request.theta : model.defaults->theta;
  if (!(theta > 0.0) || !std::isfinite(theta))
    return "theta must be positive and finite";
  if (request.default_alpha != 0.0 &&
      (!(request.default_alpha > 0.0) || request.default_alpha > 1.0))
    return "default_alpha must be in (0, 1]";
  const std::size_t links = model.graph->link_count();
  for (topo::LinkId id : request.failed)
    if (id >= links) return "failed link id out of range";
  if (!request.warm_start.empty() && request.warm_start.size() != links)
    return "warm_start must cover every link or be empty";
  for (double rate : request.warm_start)
    if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0)
      return "warm_start rates must be in [0, 1]";
  switch (request.kind) {
    case RequestKind::kWhatIfBatch:
      if (request.what_if.empty())
        return "what_if_batch requires at least one scenario";
      for (const auto& scenario : request.what_if)
        for (topo::LinkId id : scenario)
          if (id >= links) return "what_if link id out of range";
      break;
    case RequestKind::kThetaSweep:
      if (request.thetas.empty())
        return "theta_sweep requires at least one theta";
      for (double value : request.thetas)
        if (!(value > 0.0) || !std::isfinite(value))
          return "sweep thetas must be positive and finite";
      break;
    case RequestKind::kSolve:
    case RequestKind::kAccuracyReport:
      break;
  }
  return {};
}

core::ProblemOptions request_problem_options(const ModelView& model,
                                             const Request& request) {
  core::ProblemOptions base = *model.defaults;
  if (request.theta > 0.0) base.theta = request.theta;
  if (request.default_alpha > 0.0)
    base.default_alpha = request.default_alpha;
  for (topo::LinkId id : request.failed) base.failed.insert(id);
  return base;
}

std::size_t expand_request(const ModelView& model, const Request& request,
                           std::deque<core::PlacementProblem>& problems) {
  const std::size_t first = problems.size();
  const core::ProblemOptions options = request_problem_options(model, request);
  const auto add = [&](core::ProblemOptions problem_options,
                       std::shared_ptr<const routing::RoutingMatrix> from) {
    problems.emplace_back(*model.graph, *model.task, *model.loads,
                          std::move(problem_options), std::move(from));
  };
  switch (request.kind) {
    case RequestKind::kSolve:
    case RequestKind::kAccuracyReport:
      add(options, *model.routing);
      break;
    case RequestKind::kWhatIfBatch:
      for (const auto& scenario : request.what_if) {
        core::ProblemOptions with_scenario = options;
        for (topo::LinkId id : scenario) with_scenario.failed.insert(id);
        add(std::move(with_scenario), *model.routing);
      }
      break;
    case RequestKind::kThetaSweep:
      for (double theta : request.thetas) {
        core::ProblemOptions at_theta = options;
        at_theta.theta = theta;
        // Every point shares the first point's routing.
        add(std::move(at_theta), problems.size() == first
                                     ? *model.routing
                                     : problems.back().shared_routing());
      }
      break;
  }
  return problems.size() - first;
}

opt::SolverOptions request_solver_options(const opt::SolverOptions& base,
                                          const Request& request,
                                          ServeClock::time_point deadline,
                                          const obs::Clock* clock) {
  opt::SolverOptions solver = base;
  if (request.deadline_ms > 0 || request.iteration_budget > 0) {
    // Per-request cancellation hook: polled between solver iterations on
    // whichever worker runs this request's problems.
    const std::uint32_t budget = request.iteration_budget;
    solver.should_stop = [deadline, budget, clock](int iterations) {
      if (budget > 0 && iterations >= static_cast<int>(budget)) return true;
      return deadline != ServeClock::time_point::max() &&
             clock->now() >= deadline;
    };
  }
  return solver;
}

AssembledResponse assemble_response(
    const Request& request, std::span<core::PlacementSolution> slice) {
  AssembledResponse out;
  Response& response = out.response;
  response.id = request.id;
  response.kind = request.kind;

  for (const core::PlacementSolution& solution : slice) {
    if (solution.status == opt::SolveStatus::kCancelled) {
      out.cancelled = true;
      out.cancelled_iterations = solution.iterations;
    }
  }

  switch (request.kind) {
    case RequestKind::kSolve:
    case RequestKind::kWhatIfBatch:
      response.solutions.assign(std::move_iterator(slice.begin()),
                                std::move_iterator(slice.end()));
      break;
    case RequestKind::kThetaSweep:
      response.sweep.reserve(slice.size());
      for (std::size_t j = 0; j < slice.size(); ++j) {
        const core::PlacementSolution& solution = slice[j];
        response.sweep.push_back(ThetaPoint{
            request.thetas[j], solution.total_utility, solution.lambda,
            static_cast<std::uint32_t>(solution.active_monitors.size())});
      }
      break;
    case RequestKind::kAccuracyReport: {
      const core::PlacementSolution& solution = slice[0];
      response.accuracy.reserve(solution.per_od.size());
      for (const core::OdReport& od : solution.per_od) {
        response.accuracy.push_back(
            OdAccuracy{od.od, od.expected_packets, od.rho_approx,
                       od.rho_exact, od.predicted_accuracy});
      }
      response.solutions.push_back(std::move(slice[0]));
      break;
    }
  }

  if (out.cancelled) {
    response.status = ResponseStatus::kDeadlineExpired;
    response.error =
        request.iteration_budget > 0 &&
                out.cancelled_iterations >=
                    static_cast<int>(request.iteration_budget)
            ? "iteration budget exhausted mid-solve"
            : "deadline expired mid-solve";
  } else {
    response.status = ResponseStatus::kOk;
  }
  return out;
}

}  // namespace netmon::serve
