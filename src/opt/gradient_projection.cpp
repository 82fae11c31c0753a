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

  // Full inner-product recompute, sharded when the pool is engaged.
  auto refresh_inner = [&] {
    if (par != nullptr) {
      sep->inner_into(result.p, x, *par);
    } else {
      sep->inner_into(result.p, x);
    }
  };

  if (sep != nullptr) {
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
                        bool kkt_valid) {
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

    if (!arc_step) {
      // Search direction: projected gradient, optionally conjugate-mixed.
      d = s;
      if (options.polak_ribiere && have_prev) {
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
      if (!std::isfinite(t_max) || t_max <= 0.0) {
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
    } else if (ls.hit_boundary) {
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
        s_prev = s;
        d_prev = d;
        have_prev = true;
      }
    }
    correct_budget();
    trace_iter(arc_step ? obs::StepKind::kArc : obs::StepKind::kFace, snorm,
               ls.t, /*kkt_valid=*/false);

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
