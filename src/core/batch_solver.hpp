// Batch placement solving: fan a set of PlacementProblem scenarios
// (theta sweeps, randomized instances, sensitivity perturbations,
// failure what-ifs) across the runtime thread pool.
//
// Production monitoring re-optimizes continuously over many candidate
// scenarios, so solve *throughput* — not single-solve latency — is the
// binding constraint (cf. Kallitsis et al., Amjad et al. in PAPERS.md).
// Every fan-out here is deterministic: each problem is solved by a pure
// function of its own inputs, and warm-start chaining happens inside
// fixed-size chunks whose boundaries never depend on the thread count,
// so batch outputs are bit-identical at every pool size.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "core/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/gradient_projection.hpp"
#include "runtime/thread_pool.hpp"

namespace netmon::core {

/// Knobs of a batch solve.
struct BatchOptions {
  /// Worker threads; 0 = one per hardware thread.
  unsigned threads = 0;
  /// Per-problem solver configuration.
  opt::SolverOptions solver;
  /// Warm-start chaining: inside each chunk of `chain_chunk` consecutive
  /// problems, problem i starts from problem i-1's rates (projected onto
  /// the new feasible set). Pays off when consecutive problems are close
  /// (theta sweeps, perturbations); chunk boundaries are fixed by
  /// chain_chunk alone, so results do not depend on the thread count.
  bool warm_chain = false;
  std::size_t chain_chunk = 8;
  /// Observability (obs/). When set, the solver counter family and a
  /// per-solve iteration histogram are registered on this registry and
  /// every solve in every batch reports into them (sharded per worker
  /// thread, so the fan-out never contends). Borrowed; must outlive the
  /// BatchSolver.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, every solve appends per-iteration records here (records
  /// carry a solve id, so concurrent chunk workers interleave safely).
  /// A per-item SolverOptions::trace, if any, takes precedence.
  obs::SolverTrace* trace = nullptr;
};

/// One unit of a heterogeneous batch: a problem plus optional per-item
/// overrides. Everything is borrowed and must outlive the solve call.
struct BatchItem {
  const PlacementProblem* problem = nullptr;
  /// Warm-start rates (full link-id space); null = cold start.
  const sampling::RateVector* warm = nullptr;
  /// Per-item solver options (e.g. a deadline hook); null = the batch
  /// default. Must not dangle while the batch runs.
  const opt::SolverOptions* solver = nullptr;
};

/// Fans placement problems across a thread pool.
class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  /// Solves every problem; result i corresponds to problems[i]. The
  /// problems are borrowed and must outlive the call.
  std::vector<PlacementSolution> solve(
      std::span<const PlacementProblem* const> problems) const;

  /// Convenience overload for a caller-owned vector of problems.
  std::vector<PlacementSolution> solve(
      const std::vector<PlacementProblem>& problems) const;

  /// Heterogeneous batch: each item may carry its own warm start and
  /// solver options (the serving layer's per-request deadline hooks).
  /// Every solve is a pure function of its item, so results are
  /// bit-identical at every thread count and to the equivalent direct
  /// solve_placement / resolve_warm calls. Spawns a pool per call.
  std::vector<PlacementSolution> solve_items(
      std::span<const BatchItem> items) const;

  /// Same, on a caller-owned pool — the serving layer reuses one
  /// long-lived pool across batches instead of spawning per call.
  std::vector<PlacementSolution> solve_items(
      runtime::ThreadPool& pool, std::span<const BatchItem> items) const;

  const BatchOptions& options() const noexcept { return options_; }

  /// Total problems actually solved across every batch this solver ran.
  /// The serve cache's acceptance test hinges on this: an exact cache
  /// hit must answer without moving this counter.
  std::uint64_t solves() const noexcept {
    return solves_.load(std::memory_order_relaxed);
  }

 private:
  BatchOptions options_;
  /// options_.solver with the trace sink and counter handles installed
  /// (identical copy when uninstrumented) — built once so the fan-out
  /// loops never copy SolverOptions per item.
  opt::SolverOptions effective_solver_;
  bool instrumented_ = false;
  obs::SolverCounters counters_;
  obs::Histogram iterations_hist_;
  /// Lifetime solver-invocation count; see solves(). Relaxed: the count
  /// is a monotone statistic, never a synchronization edge.
  mutable std::atomic<std::uint64_t> solves_{0};
};

/// Builds one problem per theta (the Fig. 2 sweep shape): `base` supplies
/// every option except theta.
std::vector<PlacementProblem> make_theta_sweep(
    const topo::Graph& graph, const MeasurementTask& task,
    const traffic::LinkLoads& loads, const ProblemOptions& base,
    std::span<const double> thetas);

}  // namespace netmon::core
