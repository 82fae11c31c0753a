#include "core/approx.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace netmon::core {

namespace {

/// One group's round-invariant subproblem pieces. The matrix/utilities
/// are built once; only the offsets (frozen cross-group contributions)
/// and theta_g change between rounds.
struct SubProblem {
  opt::SeparableConcaveObjective::SparseRows rows;  // local col indices
  std::vector<std::shared_ptr<const opt::Concave1d>> utilities;
  std::vector<std::size_t> terms;  // global term index per local row
  std::vector<double> u;
  std::vector<double> alpha;
  double cap = 0.0;  // sum u_j alpha_j over the group
};

/// Splits `theta` across groups proportionally to `weight`, capped at
/// each group's capacity; overflow past a cap redistributes across the
/// still-uncapped groups (water-fill). Requires theta <= sum caps.
std::vector<double> water_fill(double theta, const std::vector<double>& caps,
                               const std::vector<double>& weight) {
  const std::size_t n = caps.size();
  std::vector<double> theta_g(n, 0.0);
  std::vector<bool> capped(n, false);
  double remaining = theta;
  for (std::size_t pass = 0; pass < n; ++pass) {
    double open_weight = 0.0;
    for (std::size_t g = 0; g < n; ++g)
      if (!capped[g]) open_weight += weight[g];
    if (open_weight <= 0.0 || remaining <= 0.0) break;
    bool newly_capped = false;
    for (std::size_t g = 0; g < n; ++g) {
      if (capped[g]) continue;
      const double share = remaining * weight[g] / open_weight;
      if (share >= caps[g]) {
        theta_g[g] = caps[g];
        capped[g] = true;
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      for (std::size_t g = 0; g < n; ++g)
        if (!capped[g]) theta_g[g] = remaining * weight[g] / open_weight;
      return theta_g;
    }
    remaining = theta;
    for (std::size_t g = 0; g < n; ++g)
      if (capped[g]) remaining -= caps[g];
  }
  return theta_g;
}

}  // namespace

ApproxResult solve_approx(const PlacementProblem& problem,
                          const Partition& partition,
                          const ApproxOptions& options) {
  NETMON_REQUIRE(options.rounds >= 1, "approx tier needs at least one round");
  const opt::SeparableConcaveObjective& f = problem.objective();
  const opt::BoxBudgetConstraints& cons = problem.constraints();
  const std::size_t n = cons.dimension();
  const std::size_t m = f.term_count();
  NETMON_REQUIRE(partition.group_of_candidate.size() == n,
                 "partition does not match the problem's candidate space");
  const std::size_t G = partition.group_count();

  // ---- Round-invariant subproblems -------------------------------------
  std::vector<std::size_t> local_of(n, 0);
  for (std::size_t g = 0; g < G; ++g)
    for (std::size_t i = 0; i < partition.groups[g].size(); ++i)
      local_of[partition.groups[g][i]] = i;

  std::vector<SubProblem> subs(G);
  const std::vector<double>& u = cons.loads();
  const std::vector<double>& alpha = cons.upper();
  for (std::size_t g = 0; g < G; ++g) {
    SubProblem& sub = subs[g];
    const std::vector<std::size_t>& cols = partition.groups[g];
    sub.u.reserve(cols.size());
    sub.alpha.reserve(cols.size());
    for (std::size_t j : cols) {
      sub.u.push_back(u[j]);
      sub.alpha.push_back(alpha[j]);
      sub.cap += u[j] * alpha[j];
    }
  }
  // One pass over R buckets every row fragment into its group's rows;
  // within a row, global column order implies ascending local columns.
  const linalg::SparseCsr& R = f.matrix();
  std::vector<std::size_t> stamp(G, std::numeric_limits<std::size_t>::max());
  for (std::size_t k = 0; k < m; ++k) {
    for (const auto& [col, coeff] : R.row(k)) {
      const std::size_t g = partition.group_of_candidate[col];
      SubProblem& sub = subs[g];
      if (stamp[g] != k) {
        stamp[g] = k;
        sub.rows.emplace_back();
        sub.terms.push_back(k);
        sub.utilities.push_back(problem.utilities()[k]);
      }
      sub.rows.back().emplace_back(local_of[col], coeff);
    }
  }

  // ---- Budget split ----------------------------------------------------
  std::vector<double> caps(G), weight(G);
  for (std::size_t g = 0; g < G; ++g) caps[g] = weight[g] = subs[g].cap;
  std::vector<double> theta_g = water_fill(cons.theta(), caps, weight);

  // ---- Block-Jacobi rounds ---------------------------------------------
  std::vector<double> p =
      options.warm != nullptr ? *options.warm : cons.initial_point();
  NETMON_REQUIRE(p.size() == n, "warm start dimension mismatch");

  ApproxResult result;
  result.groups = G;
  std::vector<double> lambda_g(G, 0.0);
  std::vector<long long> iters_g(G, 0);
  std::vector<double> x_full(m);
  // The tier's target: rounds stop once the stitched point is certified
  // within it, and the polish stops there too. 0 = run every round.
  const double target = options.polish.gap_tolerance;
  bool certified = false;

  for (std::size_t round = 0; round < options.rounds; ++round) {
    f.inner_into(p, x_full);

    auto solve_group = [&](std::size_t g) {
      const SubProblem& sub = subs[g];
      const std::vector<std::size_t>& cols = partition.groups[g];
      if (cols.empty() || theta_g[g] <= 0.0) return;
      // Frozen offsets: the rest of the network, as seen by this group's
      // terms, is a constant a_k = x_k - (R_g p_g)_k.
      std::vector<double> offsets(sub.terms.size());
      for (std::size_t r = 0; r < sub.terms.size(); ++r) {
        double own = 0.0;
        for (const auto& [local, coeff] : sub.rows[r])
          own += coeff * p[cols[local]];
        offsets[r] = x_full[sub.terms[r]] - own;
      }
      const opt::SeparableConcaveObjective sub_f(cols.size(), sub.rows,
                                                 sub.utilities, offsets);
      const opt::BoxBudgetConstraints sub_cons(sub.u, sub.alpha, theta_g[g]);
      std::vector<double> start(cols.size());
      for (std::size_t i = 0; i < cols.size(); ++i) start[i] = p[cols[i]];
      start = sub_cons.project(start);
      const opt::SolveResult sr =
          opt::maximize(sub_f, sub_cons, options.subsolver, &start);
      for (std::size_t i = 0; i < cols.size(); ++i) p[cols[i]] = sr.p[i];
      lambda_g[g] = sr.lambda;
      iters_g[g] += sr.iterations;
    };

    if (options.pool != nullptr && G > 1) {
      runtime::TaskGroup group(*options.pool);
      for (std::size_t g = 0; g < G; ++g)
        group.run([&solve_group, g] { solve_group(g); });
      group.wait();
    } else {
      for (std::size_t g = 0; g < G; ++g) solve_group(g);
    }

    ++result.rounds;
    if (target > 0.0) {
      // The stitched point meets the budget up to float drift; project
      // it back onto the exact feasible set and certify it.
      p = cons.project(p);
      result.certificate = opt::certified_gap(f, cons, p);
      certified = result.certificate.relative_gap <= target;
      if (certified) break;
    }

    // Rebalance theta_g toward equalized budget marginals: each group's
    // lambda is the marginal utility of one more unit of budget, so
    // weight the next split by theta_g * lambda_g (damped by the cap
    // water-fill). Skip when the duals are degenerate.
    if (round + 1 < options.rounds) {
      bool usable = false;
      for (std::size_t g = 0; g < G; ++g)
        if (std::isfinite(lambda_g[g]) && lambda_g[g] > 0.0) usable = true;
      if (usable) {
        for (std::size_t g = 0; g < G; ++g) {
          const double l =
              std::isfinite(lambda_g[g]) ? std::max(lambda_g[g], 0.0) : 0.0;
          weight[g] = theta_g[g] * l;
          if (weight[g] <= 0.0) weight[g] = 1e-12 * subs[g].cap;
        }
        theta_g = water_fill(cons.theta(), caps, weight);
      }
    }
  }
  for (long long it : iters_g) result.subsolve_iterations += it;

  // ---- Stitch + polish --------------------------------------------------
  // Polish, with the gap stop on, only while the last round is still
  // above the target; the polish certifies its own exit point, so every
  // answer's certificate is computed once.
  opt::SolveResult polished;
  polished.status = certified ? opt::SolveStatus::kCertified
                              : opt::SolveStatus::kIterationLimit;
  if (!certified) {
    if (target <= 0.0) p = cons.project(p);  // else the last check did
    if (options.polish_iterations > 0) {
      opt::SolverOptions po = options.polish;
      po.max_iterations = options.polish_iterations;
      po.pool = options.pool;
      polished = opt::maximize(f, cons, po, &p);
      p = std::move(polished.p);
      result.certificate = polished.certificate;
    } else if (target <= 0.0) {
      result.certificate = opt::certified_gap(f, cons, p);
    }
  }

  polished.p = std::move(p);
  polished.certificate = result.certificate;
  result.solution = solution_from(problem, polished);
  return result;
}

}  // namespace netmon::core
