#include "core/reoptimize.hpp"

#include "opt/gradient_projection.hpp"
#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::core {

std::vector<double> warm_start_point(const PlacementProblem& problem,
                                     const sampling::RateVector& previous) {
  const std::vector<double> compressed = problem.compress(previous);
  return problem.constraints().project(compressed);
}

PlacementSolution resolve_warm(const PlacementProblem& problem,
                               const sampling::RateVector& previous,
                               const opt::SolverOptions& options,
                               opt::SolverWorkspace* workspace) {
  const std::vector<double> start = warm_start_point(problem, previous);
  return solution_from(
      problem, opt::maximize(problem.objective(), problem.constraints(),
                             options, &start, workspace));
}

std::vector<PlacementSolution> resolve_warm_batch(
    std::span<const PlacementProblem* const> problems,
    const sampling::RateVector& previous, const BatchOptions& options) {
  std::vector<PlacementSolution> solutions(problems.size());
  for (const PlacementProblem* problem : problems)
    NETMON_REQUIRE(problem != nullptr, "null problem in batch");
  if (problems.empty()) return solutions;

  // One solver workspace per chunk: the chunk layout is deterministic and
  // each chunk runs on a single worker, so the scratch is reused across
  // that chunk's solves without synchronization.
  runtime::ThreadPool pool(options.threads);
  const auto chunks = runtime::make_chunks(problems.size());
  runtime::parallel_for(pool, chunks.size(), [&](std::size_t c) {
    opt::SolverWorkspace workspace;
    for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      solutions[i] =
          resolve_warm(*problems[i], previous, options.solver, &workspace);
    }
  });
  return solutions;
}

}  // namespace netmon::core
