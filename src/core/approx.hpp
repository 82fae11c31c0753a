// The approximation tier: partitioned block solves with a certified
// optimality-gap bound, for instances where one exact gradient-projection
// solve is too slow even parallelized.
//
// The decomposition exploits the problem's structure: the objective
// f(p) = sum_k M_k((Rp)_k) couples groups only through terms whose paths
// cross group boundaries, and the single budget equality couples them
// through the shared theta. solve_approx runs block-Jacobi rounds:
//
//   1. Split theta across groups proportionally to each group's budget
//      capacity cap_g = sum_{j in g} u_j alpha_j (theta_g <= cap_g holds
//      automatically because theta <= sum cap_g).
//   2. Per round, build each group's subproblem with FROZEN offsets: for
//      every term k touching group g, a_k = x_k - (R_g p_g)_k under the
//      current stitched iterate, so the subobjective sees the rest of
//      the network as a constant. Solve all groups independently in
//      parallel (runtime::ThreadPool). Each subsolve meets its own
//      budget equality sum_{j in g} u_j p_j = theta_g, so the stitched
//      point satisfies the full budget exactly.
//   3. Between rounds, rebalance theta_g by the groups' budget duals
//      lambda_g (marginal utility per unit of budget) — a capped
//      water-fill toward equalized marginals, the optimality condition
//      of the budget split.
//   4. Polish: a bounded number of full-problem gradient-projection
//      iterations warm-started from the stitched point (intra-solve
//      parallel when a pool is given) restores cross-group budget
//      optimality beyond what the water-fill reached.
//
// Every answer carries a Frank-Wolfe certificate (opt/certificate.hpp):
// f* <= f(p_hat) + gap, computed from one full gradient — so the tier's
// accuracy is *measured*, never assumed. The tier stops at its target,
// polish.gap_tolerance (1% by default): after each round the projected
// stitched point is certified, and the rounds end once it meets the
// target; the polish runs only when the last round is still above it,
// with the same gap stop, and its exit certificate becomes the answer's.
#pragma once

#include <cstddef>

#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/solver.hpp"
#include "opt/certificate.hpp"
#include "opt/gradient_projection.hpp"
#include "runtime/thread_pool.hpp"

namespace netmon::core {

/// Approximation-tier knobs.
struct ApproxOptions {
  /// Block-Jacobi rounds before the polish (>= 1).
  std::size_t rounds = 2;
  /// Solver configuration for the per-group subsolves.
  opt::SolverOptions subsolver;
  /// Iteration cap of the full-problem polish; 0 disables polishing.
  int polish_iterations = 100;
  /// Solver configuration for the polish (max_iterations is overridden
  /// by polish_iterations; pool by `pool`). Its gap_tolerance is the
  /// tier's target for the rounds and the polish alike; 0 runs every
  /// round and polish_iterations in full.
  opt::SolverOptions polish = [] {
    opt::SolverOptions polish;
    polish.gap_tolerance = 0.01;
    return polish;
  }();
  /// Fans group subsolves out and parallelizes the polish. Null = serial.
  runtime::ThreadPool* pool = nullptr;
  /// Warm start (candidate space, feasible); null = initial point.
  const std::vector<double>* warm = nullptr;
};

/// Outcome of an approximate solve.
struct ApproxResult {
  PlacementSolution solution;
  opt::GapCertificate certificate;
  /// Groups actually solved (after empty-group compaction).
  std::size_t groups = 0;
  /// Block-Jacobi rounds run (fewer than ApproxOptions::rounds when a
  /// round met the target).
  std::size_t rounds = 0;
  /// Total subsolve iterations across all groups and rounds.
  long long subsolve_iterations = 0;
};

/// Solves `problem` approximately over `partition`. The solution's
/// certified_gap fields carry the certificate; its status is kCertified
/// when the answer met the target.
ApproxResult solve_approx(const PlacementProblem& problem,
                          const Partition& partition,
                          const ApproxOptions& options = {});

}  // namespace netmon::core
