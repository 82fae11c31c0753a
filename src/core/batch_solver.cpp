#include "core/batch_solver.hpp"

#include "core/reoptimize.hpp"
#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::core {

BatchSolver::BatchSolver(BatchOptions options) : options_(std::move(options)) {
  NETMON_REQUIRE(options_.chain_chunk >= 1, "chain_chunk must be >= 1");
  if (options_.metrics != nullptr) {
    counters_ = obs::register_solver_counters(*options_.metrics);
    iterations_hist_ = options_.metrics->histogram(
        "netmon_solver_iterations",
        {10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0},
        "Gradient-projection iterations per solve");
  }
  instrumented_ = options_.metrics != nullptr || options_.trace != nullptr;
  effective_solver_ = options_.solver;
  if (instrumented_) {
    if (effective_solver_.trace == nullptr)
      effective_solver_.trace = options_.trace;
    effective_solver_.counters = counters_;
  }
}

std::vector<PlacementSolution> BatchSolver::solve(
    std::span<const PlacementProblem* const> problems) const {
  const std::size_t n = problems.size();
  std::vector<PlacementSolution> solutions(n);
  for (std::size_t i = 0; i < n; ++i)
    NETMON_REQUIRE(problems[i] != nullptr, "null problem in batch");
  if (n == 0) return solutions;

  runtime::ThreadPool pool(options_.threads);

  if (!options_.warm_chain) {
    // Chunked fan-out with one solver workspace per chunk: each chunk
    // runs on one worker, so its solves reuse the same iteration scratch
    // (satellite of the zero-allocation hot path). Chunk layout is a pure
    // function of n — results stay bit-identical at every thread count.
    const auto chunks = runtime::make_chunks(n);
    runtime::parallel_for(pool, chunks.size(), [&](std::size_t c) {
      opt::SolverWorkspace workspace;
      for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
        solutions[i] =
            solve_placement(*problems[i], effective_solver_, &workspace);
        solves_.fetch_add(1, std::memory_order_relaxed);
        iterations_hist_.observe(
            static_cast<double>(solutions[i].iterations));
      }
    });
    return solutions;
  }

  // Warm chaining: chunks of chain_chunk consecutive problems run
  // serially (problem i warm-starts from i-1's rates); distinct chunks
  // run in parallel. The chunk layout depends only on chain_chunk, so
  // the outputs are thread-count independent.
  const std::size_t chunk = options_.chain_chunk;
  const std::size_t chunk_count = (n + chunk - 1) / chunk;
  runtime::parallel_for(pool, chunk_count, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, n);
    opt::SolverWorkspace workspace;
    solutions[begin] =
        solve_placement(*problems[begin], effective_solver_, &workspace);
    solves_.fetch_add(1, std::memory_order_relaxed);
    iterations_hist_.observe(static_cast<double>(solutions[begin].iterations));
    for (std::size_t i = begin + 1; i < end; ++i) {
      solutions[i] = resolve_warm(*problems[i], solutions[i - 1].rates,
                                  effective_solver_, &workspace);
      solves_.fetch_add(1, std::memory_order_relaxed);
      iterations_hist_.observe(static_cast<double>(solutions[i].iterations));
    }
  });
  return solutions;
}

std::vector<PlacementSolution> BatchSolver::solve_items(
    std::span<const BatchItem> items) const {
  runtime::ThreadPool pool(options_.threads);
  return solve_items(pool, items);
}

std::vector<PlacementSolution> BatchSolver::solve_items(
    runtime::ThreadPool& pool, std::span<const BatchItem> items) const {
  const std::size_t n = items.size();
  std::vector<PlacementSolution> solutions(n);
  for (const BatchItem& item : items)
    NETMON_REQUIRE(item.problem != nullptr, "null problem in batch item");
  if (n == 0) return solutions;

  // Chunked fan-out with one solver workspace per chunk, exactly like
  // solve(): the chunk layout is a pure function of n, and each item is
  // solved by a pure function of (problem, warm, options), so the batch
  // composition never leaks into the results.
  const auto chunks = runtime::make_chunks(n);
  runtime::parallel_for(pool, chunks.size(), [&](std::size_t c) {
    opt::SolverWorkspace workspace;
    opt::SolverOptions overlay;  // per-item options + instrumentation
    for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      const BatchItem& item = items[i];
      const opt::SolverOptions* solver = &effective_solver_;
      if (item.solver != nullptr) {
        if (instrumented_) {
          overlay = *item.solver;
          if (overlay.trace == nullptr) overlay.trace = options_.trace;
          overlay.counters = counters_;
          solver = &overlay;
        } else {
          solver = item.solver;
        }
      }
      solutions[i] =
          item.warm
              ? resolve_warm(*item.problem, *item.warm, *solver, &workspace)
              : solve_placement(*item.problem, *solver, &workspace);
      solves_.fetch_add(1, std::memory_order_relaxed);
      iterations_hist_.observe(static_cast<double>(solutions[i].iterations));
    }
  });
  return solutions;
}

std::vector<PlacementSolution> BatchSolver::solve(
    const std::vector<PlacementProblem>& problems) const {
  std::vector<const PlacementProblem*> pointers;
  pointers.reserve(problems.size());
  for (const PlacementProblem& problem : problems)
    pointers.push_back(&problem);
  return solve(std::span<const PlacementProblem* const>(pointers));
}

std::vector<PlacementProblem> make_theta_sweep(
    const topo::Graph& graph, const MeasurementTask& task,
    const traffic::LinkLoads& loads, const ProblemOptions& base,
    std::span<const double> thetas) {
  std::vector<PlacementProblem> problems;
  problems.reserve(thetas.size());
  for (const double theta : thetas) {
    ProblemOptions options = base;
    options.theta = theta;
    // Every point shares the first point's routing.
    problems.emplace_back(graph, task, loads, options,
                          problems.empty() ? nullptr
                                           : problems.front().shared_routing());
  }
  return problems;
}

}  // namespace netmon::core
