#include "opt/gradient_projection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "runtime/parallel.hpp"
#include "util/error.hpp"

namespace netmon::opt {

namespace {

constexpr double kSnapLower = 1e-13;   // absolute snap-to-zero threshold
constexpr double kSnapUpperRel = 1e-13;  // relative snap-to-alpha threshold
// Fused path: full inner-product recompute cadence. Delta updates keep
// rho = R p in sync to within a few ulps per update; a periodic refresh
// (and one after any mass-update iteration) bounds the accumulated drift
// independently of the iteration count.
constexpr int kInnerRefreshInterval = 64;
// Arc steps stop once one gains no more than this share of the best gain
// of the current run of arc steps (Moré and Toraldo's eta_2).
constexpr double kArcMinGain = 0.25;
// Newton-CG face steps: CG stops once the residual is within
// eta * ||s||, eta = min(kCgForcingMax, ||s|| / (1 + ||g||)) (quadratic
// forcing), or after kCgMaxIterations products.
constexpr double kCgForcingMax = 0.1;
constexpr int kCgMaxIterations = 60;

double norm2(std::span<const double> v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return std::sqrt(sum);
}

double dot(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) sum += a[j] * b[j];
  return sum;
}

// Projects `v` onto the subspace of the active constraints: zero on bound-
// active coordinates, orthogonal (in the free coordinates) to the budget
// normal u. The reductions stay serial (summation order is part of the
// bit-identity contract); a non-null pool shards only the elementwise
// write pass, which is bit-identical under any sharding.
void project_direction(std::span<const double> v, std::span<const double> u,
                       const std::vector<BoundState>& bounds,
                       std::span<double> out,
                       runtime::ThreadPool* pool = nullptr) {
  double vu = 0.0, uu = 0.0;
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (bounds[j] == BoundState::kFree) {
      vu += v[j] * u[j];
      uu += u[j] * u[j];
    }
  }
  const double lambda = uu > 0.0 ? vu / uu : 0.0;
  auto write = [&](std::size_t j) {
    out[j] = bounds[j] == BoundState::kFree ? v[j] - lambda * u[j] : 0.0;
  };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, v.size(), write);
  } else {
    for (std::size_t j = 0; j < v.size(); ++j) write(j);
  }
}

struct NewtonCg {
  int iterations = 0;      // Hessian-vector products taken
  bool converged = false;  // the residual met the forcing tolerance
};

// Truncated CG on the face's Newton system (P H P) d = s, with
// H = R_F^T diag(-M'') R_F and P the projection that zeroes the bound
// coordinates and takes the free ones off the budget normal u_F. The
// solve runs in compact coordinates over the free set; every product is
// one walk of the free CSC columns to form R_F v, then one walk back.
// All reductions are serial. Writes the direction into `d` (zero on the
// bound coordinates); iterations == 0 means the first product found no
// positive curvature and `d` is untouched.
NewtonCg newton_cg(const SeparableConcaveObjective& f,
                   std::span<const double> m2, std::span<const double> s,
                   double snorm, double gnorm, std::span<const double> u,
                   const std::vector<BoundState>& bounds, SolverWorkspace& ws,
                   std::span<double> d) {
  std::vector<std::size_t>& cols = ws.free_cols;
  cols.clear();
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    if (bounds[j] == BoundState::kFree) cols.push_back(j);
  }
  const std::size_t m = cols.size();
  const std::span<double> uf(ws.cg_u.data(), m), x(ws.cg_d.data(), m),
      r(ws.cg_r.data(), m), p(ws.cg_p.data(), m), hp(ws.cg_hp.data(), m);
  double uu = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    uf[i] = u[cols[i]];
    uu += uf[i] * uf[i];
    x[i] = 0.0;
    r[i] = s[cols[i]];
    p[i] = r[i];
  }
  auto project = [&](std::span<double> v) {
    if (!(uu > 0.0)) return;
    const double lambda = dot(v, uf) / uu;
    for (std::size_t i = 0; i < m; ++i) v[i] -= lambda * uf[i];
  };

  const linalg::SparseCsr& rt = f.matrix_transposed();
  const std::span<const std::size_t> col_ptr = rt.row_ptr();
  const std::span<const linalg::SparseCsr::Index> rows = rt.col_idx();
  const std::span<const double> vals = rt.values();
  std::vector<double>& w = ws.cg_w;
  // hp = P H p: w = R_F p (zeroing only the rows the free columns reach),
  // then hp_i = sum_k R_{k,j} (-M''_k) w_k down each free column j.
  auto hessian_times_p = [&] {
    for (std::size_t j : cols) {
      for (std::size_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e) w[rows[e]] = 0.0;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = cols[i];
      for (std::size_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e)
        w[rows[e]] += vals[e] * p[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t j = cols[i];
      double acc = 0.0;
      for (std::size_t e = col_ptr[j]; e < col_ptr[j + 1]; ++e)
        acc -= vals[e] * m2[rows[e]] * w[rows[e]];
      hp[i] = acc;
    }
    project(hp);
  };

  const double eta = std::min(kCgForcingMax, snorm / (1.0 + gnorm));
  const double tol = eta * snorm;
  double rr = snorm * snorm;
  NewtonCg out;
  while (out.iterations < kCgMaxIterations) {
    hessian_times_p();
    const double curvature = dot(p, hp);
    if (!(curvature > 0.0)) break;  // flat or rounding: keep what we have
    ++out.iterations;
    const double a = rr / curvature;
    for (std::size_t i = 0; i < m; ++i) {
      x[i] += a * p[i];
      r[i] -= a * hp[i];
    }
    const double rr_next = dot(r, r);
    if (std::sqrt(rr_next) <= tol) {
      out.converged = true;
      break;
    }
    const double beta = rr_next / rr;
    rr = rr_next;
    for (std::size_t i = 0; i < m; ++i) p[i] = r[i] + beta * p[i];
  }
  if (out.iterations == 0) return out;
  project(x);
  std::fill(d.begin(), d.end(), 0.0);
  for (std::size_t i = 0; i < m; ++i) d[cols[i]] = x[i];
  return out;
}

}  // namespace

SolveResult maximize(const Objective& f,
                     const BoxBudgetConstraints& constraints,
                     const SolverOptions& options,
                     const std::vector<double>* start,
                     SolverWorkspace* workspace) {
  const std::size_t n = constraints.dimension();
  NETMON_REQUIRE(f.dimension() == n,
                 "objective/constraint dimension mismatch");
  const std::vector<double>& u = constraints.loads();
  const std::vector<double>& alpha = constraints.upper();

  // Fused fast path: separable objectives evaluate value, gradient and
  // per-term M'/M'' from one matrix traversal, keep rho = R p patched
  // incrementally, and run line-search probes with no traversal at all.
  const SeparableConcaveObjective* sep =
      options.use_fused ? f.separable() : nullptr;

  // Intra-solve parallelism, engaged only above the instance-size
  // threshold: `par` shards term-dimension work (fused kernels, spmv,
  // probes), `par_dim` shards variable-dimension writes (projection,
  // clamps) and needs its own floor because the variable count is often
  // far below the term count. Null = the historical serial path.
  runtime::ThreadPool* const par =
      options.pool != nullptr && sep != nullptr &&
              sep->term_count() >= options.parallel_min_terms
          ? options.pool
          : nullptr;
  runtime::ThreadPool* const par_dim =
      par != nullptr && n >= options.parallel_min_terms ? par : nullptr;

  SolveResult result;
  result.p = start ? *start : constraints.initial_point();
  NETMON_REQUIRE(result.p.size() == n, "start point dimension mismatch");
  NETMON_REQUIRE(constraints.feasible(result.p, 1e-7),
                 "start point is infeasible");

  std::vector<BoundState>& bounds = result.bounds;
  bounds.assign(n, BoundState::kFree);

  // Every mutation of p after the inner products exist goes through
  // set_p, which mirrors the change into x via one CSC-column walk —
  // the incremental active-set update that replaces the full R p.
  bool maintain_x = false;
  std::span<double> x;
  std::size_t deltas_this_iter = 0;
  auto set_p = [&](std::size_t j, double v) {
    if (maintain_x && v != result.p[j]) {
      sep->inner_axpy(j, v - result.p[j], x);
      ++deltas_this_iter;
    }
    result.p[j] = v;
  };
  auto classify = [&](std::size_t j) {
    if (result.p[j] <= kSnapLower) {
      set_p(j, 0.0);
      bounds[j] = BoundState::kAtLower;
    } else if (alpha[j] - result.p[j] <= kSnapUpperRel * alpha[j]) {
      set_p(j, alpha[j]);
      bounds[j] = BoundState::kAtUpper;
    } else {
      bounds[j] = BoundState::kFree;
    }
  };
  for (std::size_t j = 0; j < n; ++j) classify(j);

  // Redistributes budget drift (from snapping) over the free coordinates.
  auto correct_budget = [&] {
    const double drift = constraints.theta() - constraints.budget(result.p);
    if (std::abs(drift) <= 1e-12 * constraints.theta()) return;
    double uu = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (bounds[j] == BoundState::kFree) uu += u[j] * u[j];
    }
    if (uu <= 0.0) return;
    for (std::size_t j = 0; j < n; ++j) {
      if (bounds[j] != BoundState::kFree) continue;
      set_p(j, std::clamp(result.p[j] + drift * u[j] / uu, 0.0, alpha[j]));
    }
  };

  SolverWorkspace local;
  SolverWorkspace& ws = workspace ? *workspace : local;
  ws.g.resize(n);
  ws.s.resize(n);
  ws.d.resize(n);
  ws.s_prev.resize(n);
  ws.d_prev.resize(n);
  ws.dir_tmp.resize(n);
  ws.y.resize(n);
  ws.p_prev.resize(n);
  ws.g_prev.resize(n);
  std::vector<double>& g = ws.g;
  std::vector<double>& s = ws.s;
  std::vector<double>& d = ws.d;
  std::vector<double>& s_prev = ws.s_prev;
  std::vector<double>& d_prev = ws.d_prev;
  bool have_prev = false;
  // Arc steps (Moré–Toraldo GPCG): after a face step stops on a bound,
  // step along d = P_X(p + t g) - p instead, for as long as those steps
  // change the active set and each gains more than kArcMinGain of the
  // run's best gain.
  bool arc = false;
  bool arc_taken = false;     // the previous iteration took an arc step
  double arc_value = 0.0;     // objective before that step
  double arc_best_gain = 0.0;
  double arc_lambda_per_t = 0.0;  // projection multiplier / t, warm start
  double chord_lambda = 0.0;      // chord projection multiplier, warm start

  // Full inner-product recompute, sharded when the pool is engaged.
  auto refresh_inner = [&] {
    if (par != nullptr) {
      sep->inner_into(result.p, x, *par);
    } else {
      sep->inner_into(result.p, x);
    }
  };

  if (sep != nullptr) {
    ws.free_cols.reserve(n);
    for (auto* v : {&ws.cg_u, &ws.cg_d, &ws.cg_r, &ws.cg_p, &ws.cg_hp})
      v->resize(n);
    ws.cg_w.resize(sep->term_count());
    ws.x.resize(sep->term_count());
    x = {ws.x.data(), ws.x.size()};
    refresh_inner();
    maintain_x = true;
  }

  // Whether g (and, on the fused path, current_value and m2_terms) were
  // produced at the CURRENT p — false as soon as a step moves p, so the
  // exit path knows whether one final evaluation is needed.
  bool eval_current = false;
  double current_value = 0.0;
  std::span<const double> m2_terms;  // per-term M'' at p (fused path)
  int iters_since_refresh = 0;

  int iter = 0;
  const bool check_gap = options.gap_tolerance > 0.0;

  // Opt-in iteration tracing. Everything below only READS solver state:
  // with trace unset the iterate sequence is bit-identical, and with it
  // set the only extra per-iteration work is two O(n) reductions plus
  // one lock-free ring append — no allocation either way.
  obs::SolverTrace* const trace = options.trace;
  const std::uint64_t solve_id = trace ? trace->begin_solve() : 0;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // `kkt_valid`: ws.kkt holds multipliers computed at this iterate.
  auto trace_iter = [&](obs::StepKind kind, double snorm, double step,
                        bool kkt_valid, int cg_iterations = 0) {
    if (trace == nullptr) return;
    obs::TraceRecord r;
    r.solve_id = solve_id;
    r.iteration = static_cast<std::uint32_t>(iter);
    r.kind = kind;
    r.fused = sep != nullptr;
    r.value = sep != nullptr ? current_value : kNan;
    // One fused pass, four max accumulators: a single max chain over
    // |g| is latency-bound and would dominate the per-iteration tax.
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    std::uint32_t active = 0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      m0 = std::max(m0, std::abs(g[j]));
      m1 = std::max(m1, std::abs(g[j + 1]));
      m2 = std::max(m2, std::abs(g[j + 2]));
      m3 = std::max(m3, std::abs(g[j + 3]));
      active += (bounds[j] != BoundState::kFree) +
                (bounds[j + 1] != BoundState::kFree) +
                (bounds[j + 2] != BoundState::kFree) +
                (bounds[j + 3] != BoundState::kFree);
    }
    for (; j < n; ++j) {
      m0 = std::max(m0, std::abs(g[j]));
      active += bounds[j] != BoundState::kFree;
    }
    r.grad_inf = std::max(std::max(m0, m1), std::max(m2, m3));
    r.proj_grad_norm = snorm;
    r.step = step;
    r.active_set = active;
    r.restriction_terms =
        sep != nullptr && step > 0.0
            ? static_cast<std::uint32_t>(ws.restriction.active_terms())
            : 0;
    r.kkt_lambda = kkt_valid ? ws.kkt.lambda : kNan;
    r.kkt_residual = kkt_valid ? ws.kkt.worst : kNan;
    r.cg_iterations = static_cast<std::uint32_t>(cg_iterations);
    trace->record(r);
  };
  while (iter < options.max_iterations) {
    if (options.should_stop && options.should_stop(iter)) {
      result.status = SolveStatus::kCancelled;
      break;
    }
    ++iter;
    deltas_this_iter = 0;
    if (sep != nullptr) {
      const SeparableConcaveObjective::FusedEval fe =
          sep->fused_eval_from_inner(x, g, ws.eval, par);
      current_value = fe.value;
      m2_terms = fe.m2;
    } else {
      f.gradient(result.p, g, ws.eval);
    }
    eval_current = true;
    // Objective at p, for the gap stop and the arc-step progress test
    // (the fused evaluation has it already).
    double value = 0.0;
    if (arc || arc_taken || check_gap) {
      value = sep != nullptr ? current_value : f.value(result.p, ws.eval);
    }
    if (check_gap) {
      result.certificate =
          certificate_at(value, g, result.p, constraints, ws.fill);
      if (result.certificate.relative_gap <= options.gap_tolerance) {
        result.status = SolveStatus::kCertified;
        trace_iter(obs::StepKind::kCertified, kNan, 0.0, /*kkt_valid=*/false);
        break;
      }
    }
    if (arc_taken) {
      const double gain = value - arc_value;
      arc = arc && gain > kArcMinGain * arc_best_gain;
      arc_best_gain = std::max(arc_best_gain, gain);
      arc_taken = false;
    }
    // Barzilai–Borwein length ||dp||^2 / -(dp . dg) from the last iterate
    // pair (arc is only ever set after an iteration has stored it), then
    // this iterate becomes the pair's tail.
    double bb_t = kNan;
    if (arc) {
      double pp = 0.0, pg = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double dp = result.p[j] - ws.p_prev[j];
        pp += dp * dp;
        pg += dp * (g[j] - ws.g_prev[j]);
      }
      bb_t = pp / -pg;
    }
    std::copy(result.p.begin(), result.p.end(), ws.p_prev.begin());
    std::copy(g.begin(), g.end(), ws.g_prev.begin());
    project_direction(g, u, bounds, s, par_dim);

    const double snorm = norm2(s);
    const double gnorm = norm2(g);
    if (snorm <= options.grad_tol * (1.0 + gnorm)) {
      compute_kkt(g, u, bounds, options.kkt_tol, ws.kkt);
      result.lambda = ws.kkt.lambda;
      result.worst_multiplier = ws.kkt.worst;
      if (ws.kkt.satisfied) {
        result.status = SolveStatus::kOptimal;
        trace_iter(obs::StepKind::kOptimal, snorm, 0.0, /*kkt_valid=*/true);
        break;
      }
      trace_iter(obs::StepKind::kRelease, snorm, 0.0, /*kkt_valid=*/true);
      // Release every active constraint whose multiplier is negative
      // (paper §IV-D) and keep searching.
      for (std::size_t j : ws.kkt.violating) bounds[j] = BoundState::kFree;
      ++result.release_events;
      have_prev = false;
      continue;
    }

    // Arc direction d = P_X(p + t g) - p: every point p + tau d with tau
    // in [0, 1] is feasible, so the 1-D search runs on [0, 1].
    bool arc_step = false;
    // Newton-CG face step (fused path, settled face): `chord_step` when
    // the full step left the box and the search runs along the chord
    // P_F(p + d) - p; `capped` when CG converged and the full step stays
    // in the box, so the search is capped at t = 1.
    NewtonCg cg;
    bool chord_step = false;
    bool capped = false;
    double t_max = 1.0;
    if (arc) {
      double t = bb_t;
      if (!(std::isfinite(t) && t > 0.0)) {
        double sinf = 0.0;
        for (double v : s) sinf = std::max(sinf, std::abs(v));
        t = 1.0 / sinf;
      }
      for (std::size_t j = 0; j < n; ++j) ws.y[j] = result.p[j] + t * g[j];
      arc_lambda_per_t =
          constraints.project_into(ws.y, d, arc_lambda_per_t * t) / t;
      for (std::size_t j = 0; j < n; ++j) d[j] -= result.p[j];
      // Not an ascent direction (p is a fixed point of the projection up
      // to rounding): take a face step instead.
      arc_step = dot(g, d) > 0.0;
      arc_taken = arc_step;
      arc_value = value;
    }

    if (!arc_step && sep != nullptr && have_prev) {
      cg = newton_cg(*sep, m2_terms, s, snorm, gnorm, u, bounds, ws, d);
      if (cg.iterations > 0 && !(dot(g, d) > 0.0)) cg.iterations = 0;
    }
    if (!arc_step && cg.iterations == 0) {
      // Search direction: projected gradient, conjugate-mixed on the
      // generic path.
      d = s;
      if (sep == nullptr && options.polak_ribiere && have_prev) {
        double num = 0.0, den = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          num += s[j] * (s[j] - s_prev[j]);
          den += s_prev[j] * s_prev[j];
        }
        const double beta = den > 0.0 ? std::max(0.0, num / den) : 0.0;
        if (beta > 0.0) {
          for (std::size_t j = 0; j < n; ++j) d[j] = s[j] + beta * d_prev[j];
          // Keep d inside the active subspace and ascending.
          std::copy(d.begin(), d.end(), ws.dir_tmp.begin());
          project_direction(ws.dir_tmp, u, bounds, d, par_dim);
          if (dot(d, g) <= 0.0) d = s;
        }
      }
    }

    if (!arc_step) {
      // Longest feasible step along d.
      t_max = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] != BoundState::kFree) continue;
        if (d[j] > 0.0) {
          t_max = std::min(t_max, (alpha[j] - result.p[j]) / d[j]);
        } else if (d[j] < 0.0) {
          t_max = std::min(t_max, result.p[j] / -d[j]);
        }
      }
      if (cg.iterations > 0 && t_max < 1.0) {
        // The full Newton step crosses a bound: search the chord to its
        // projection onto the face instead, P_F(p + d) - p. It pins every
        // crossing coordinate at once and leaves the bound ones in place.
        const std::span<const std::size_t> cols = ws.free_cols;
        const std::size_t m = cols.size();
        const std::span<double> yf(ws.cg_r.data(), m),
            af(ws.cg_hp.data(), m), pf(ws.cg_p.data(), m);
        double theta_f = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const std::size_t j = cols[i];
          yf[i] = result.p[j] + d[j];
          af[i] = alpha[j];
          theta_f += u[j] * result.p[j];
        }
        chord_lambda = project_box_budget(yf, {ws.cg_u.data(), m}, af,
                                          theta_f, pf, chord_lambda);
        double slope = 0.0;
        for (std::size_t i = 0; i < m; ++i)
          slope += g[cols[i]] * (pf[i] - result.p[cols[i]]);
        if (slope > 0.0) {
          for (std::size_t i = 0; i < m; ++i)
            d[cols[i]] = pf[i] - result.p[cols[i]];
          chord_step = true;
          t_max = 1.0;
        }
      } else if (cg.converged) {
        capped = true;
        t_max = 1.0;
      }
      if (!chord_step && (!std::isfinite(t_max) || t_max <= 0.0)) {
        // Numerically stuck against a bound: activate the offender(s).
        bool changed = false;
        for (std::size_t j = 0; j < n; ++j) {
          if (bounds[j] != BoundState::kFree) continue;
          if ((d[j] < 0.0 && result.p[j] <= kSnapLower) ||
              (d[j] > 0.0 &&
               alpha[j] - result.p[j] <= kSnapUpperRel * alpha[j])) {
            classify(j);
            changed = changed || bounds[j] != BoundState::kFree;
          }
        }
        have_prev = false;
        trace_iter(obs::StepKind::kFace, snorm, 0.0, /*kkt_valid=*/false);
        if (!changed) break;  // nothing to activate: give up this path
        continue;
      }
    }

    // 1-D search. phi'(0) = dot(g, d) is already in hand — the search
    // never re-evaluates the objective at t = 0.
    const double phi0 = dot(g, d);
    LineSearchResult ls;
    if (sep != nullptr) {
      // One traversal for rd = R d; every probe after that is a batched
      // pass over the terms the direction actually touches. phi''(0)
      // comes for free from this iteration's fused M''.
      ws.restriction.reset(*sep, x, d, m2_terms, par);
      ls = maximize_phi(ws.restriction, t_max, options.line_search, phi0);
    } else {
      GenericPhi phi(f, result.p, d, ws.eval);
      ls = maximize_phi(phi, t_max, options.line_search, phi0);
    }
    if (ls.t <= 0.0) {
      // No numerical progress possible along d: decide via the KKT
      // multipliers, exactly as when the projected gradient vanishes.
      compute_kkt(g, u, bounds, options.kkt_tol, ws.kkt);
      result.lambda = ws.kkt.lambda;
      result.worst_multiplier = ws.kkt.worst;
      if (ws.kkt.satisfied) {
        result.status = SolveStatus::kOptimal;
        trace_iter(obs::StepKind::kOptimal, snorm, 0.0, /*kkt_valid=*/true);
        break;
      }
      trace_iter(obs::StepKind::kRelease, snorm, 0.0, /*kkt_valid=*/true);
      for (std::size_t j : ws.kkt.violating) bounds[j] = BoundState::kFree;
      ++result.release_events;
      have_prev = false;
      continue;
    }
    if (sep != nullptr) {
      // Dense inner-product update x += t * rd (rd cached from the line
      // search), then per-column corrections for the clamped coordinates
      // only — no full R p recompute.
      const std::span<const double> rd = ws.restriction.rd();
      if (par != nullptr) {
        const double t = ls.t;
        runtime::parallel_for(*par, rd.size(),
                              [&x, rd, t](std::size_t k) { x[k] += t * rd[k]; });
      } else {
        for (std::size_t k = 0; k < rd.size(); ++k) x[k] += ls.t * rd[k];
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double moved = result.p[j] + ls.t * d[j];
        const double v = std::clamp(moved, 0.0, alpha[j]);
        if (v != moved) {
          sep->inner_axpy(j, v - moved, x);
          ++deltas_this_iter;
        }
        result.p[j] = v;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        result.p[j] = std::clamp(result.p[j] + ls.t * d[j], 0.0, alpha[j]);
      }
    }
    eval_current = false;

    if (arc_step) {
      // One arc step can pin and free coordinates alike.
      bool changed = false;
      for (std::size_t j = 0; j < n; ++j) {
        const BoundState before = bounds[j];
        classify(j);
        changed = changed || bounds[j] != before;
      }
      arc = changed;
      have_prev = false;
    } else if (chord_step) {
      // The chord pins what it carried onto a bound and leaves the face
      // settled: the Newton model that predicted the crossings drives the
      // next step as well.
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] == BoundState::kFree) classify(j);
      }
    } else if (ls.hit_boundary && !capped) {
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] == BoundState::kFree) classify(j);
      }
      have_prev = false;  // active set changed: restart conjugacy
      arc = true;
      arc_best_gain = 0.0;
    } else {
      // Interior maximum along d; still snap coordinates that crept onto
      // a bound to keep t_max healthy next iteration.
      bool snapped = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds[j] != BoundState::kFree) continue;
        classify(j);
        snapped = snapped || bounds[j] != BoundState::kFree;
      }
      if (snapped) {
        have_prev = false;
      } else {
        if (sep == nullptr) {
          s_prev = s;
          d_prev = d;
        }
        have_prev = true;
      }
    }
    correct_budget();
    trace_iter(arc_step             ? obs::StepKind::kArc
               : cg.iterations > 0 ? obs::StepKind::kNewton
                                   : obs::StepKind::kFace,
               snorm, ls.t, /*kkt_valid=*/false, cg.iterations);

    if (maintain_x && (++iters_since_refresh >= kInnerRefreshInterval ||
                       deltas_this_iter > n / 4)) {
      refresh_inner();
      iters_since_refresh = 0;
    }
  }

  result.iterations = iter;
  if (sep != nullptr) {
    if (!eval_current) {
      // One exact evaluation at the exit point: refresh rho and run the
      // fused kernel once (value + gradient in a single traversal).
      refresh_inner();
      const SeparableConcaveObjective::FusedEval fe =
          sep->fused_eval_from_inner(x, g, ws.eval, par);
      current_value = fe.value;
    }
    result.value = current_value;
  } else {
    result.value = f.value(result.p, ws.eval);
    if (result.status != SolveStatus::kOptimal && !eval_current) {
      f.gradient(result.p, g, ws.eval);
    }
  }
  if (result.status != SolveStatus::kOptimal) {
    // Final multipliers for diagnostics, from the gradient already in
    // ws.g — recomputed above only when p moved after the last fused
    // evaluation, never twice.
    compute_kkt(g, u, bounds, options.kkt_tol, ws.kkt);
    result.lambda = ws.kkt.lambda;
    result.worst_multiplier = ws.kkt.worst;
  }
  // The returned point's certificate, from the same gradient (a gap stop
  // certified this very point already).
  if (result.status != SolveStatus::kCertified) {
    result.certificate =
        certificate_at(result.value, g, result.p, constraints, ws.fill);
  }

  options.counters.iterations.inc(static_cast<std::uint64_t>(iter));
  options.counters.release_events.inc(
      static_cast<std::uint64_t>(result.release_events));
  options.counters.solves.inc();
  if (result.status == SolveStatus::kCancelled) options.counters.cancelled.inc();

  if (trace != nullptr) {
    // Summary record: KKT fields equal the SolveResult report exactly.
    obs::TraceRecord r;
    r.solve_id = solve_id;
    r.iteration = static_cast<std::uint32_t>(result.iterations);
    r.final_record = true;
    r.kind = obs::StepKind::kSummary;
    r.fused = sep != nullptr;
    r.status = static_cast<std::uint8_t>(result.status);
    r.value = result.value;
    double ginf = 0.0;
    for (double v : g) ginf = std::max(ginf, std::abs(v));
    r.grad_inf = ginf;
    r.proj_grad_norm = kNan;
    r.step = kNan;
    std::uint32_t active = 0;
    for (BoundState b : bounds) active += b != BoundState::kFree;
    r.active_set = active;
    r.kkt_lambda = result.lambda;
    r.kkt_residual = result.worst_multiplier;
    trace->record(r);
  }
  return result;
}

}  // namespace netmon::opt
