// Gradient projection solver for concave maximization over box bounds plus
// one budget equality — the paper's algorithm (§IV-D), with projection-arc
// steps while the active set moves.
//
// A face step projects the gradient onto the subspace spanned by the
// currently active constraints and moves along the projected direction
// until the objective is maximized on the segment (safeguarded Newton 1-D
// search) or an inactive constraint is hit, which is then activated. Once
// the face has settled (the previous face step ended inside it), the
// fused path steps along a truncated Newton-CG direction on the face
// instead (Moré–Toraldo GPCG, Lin–Moré TRON): CG on (P H P) d = s with
// H = R_F^T diag(-M'') R_F over the free coordinates F and P the
// projection onto the face. When the full Newton step leaves the box, the
// search runs along the chord P_F(p + d) - p, with P_F the projection
// onto the face (the free coordinates alone, holding their share of the
// budget), which pins every crossing coordinate at once and leaves the
// bound ones in place; otherwise a converged CG step is searched on
// [0, 1]. The generic path mixes the previous direction per Polak-Ribiere
// there. After a face step stops on a bound, the solver takes arc steps
// instead (the switching rule of Moré and Toraldo's GPCG):
// d = P_X(p + t g) - p, with t the Barzilai-Borwein
// length of the last iterate pair and P_X the Euclidean projection onto
// the feasible set, searched on [0, 1] by the same 1-D search. Every
// coordinate is then re-classified — one arc step can pin and free
// thousands of bounds — and arc steps continue while they change the
// active set and each gains more than a quarter of the run's best gain;
// then face steps resume. When the projected gradient vanishes, the KKT
// multipliers decide: all non-negative => certified global optimum (the
// objective is concave and the feasible set convex); otherwise the active
// constraints with negative multipliers are released and the search
// continues.
//
// Stop rule. By default a solve ends on the KKT certificate (kOptimal),
// the iteration cap, or should_stop. With SolverOptions::gap_tolerance
// set, every iteration also certifies its iterate from the value and
// gradient it has just evaluated (opt/certificate.hpp: one O(n) knapsack
// fill and one dot product, less than an iteration) and stops with
// kCertified once the Frank-Wolfe gap is within that relative tolerance.
// Either way the result carries the certificate of its returned point.
#pragma once

#include <functional>
#include <vector>

#include "obs/trace.hpp"
#include "opt/certificate.hpp"
#include "opt/constraints.hpp"
#include "opt/fused_eval.hpp"
#include "opt/kkt.hpp"
#include "opt/line_search.hpp"
#include "opt/objective.hpp"

namespace netmon::opt {

/// Solver knobs. Defaults follow the paper (iteration cap 2000).
struct SolverOptions {
  /// Hard cap on iterations; the paper observes 98.6% of instances
  /// converge below 2000.
  int max_iterations = 2000;
  /// Projected-gradient norm tolerance (relative to the gradient norm).
  /// The achievable floor is set by cancellation in g - lambda*u; 1e-9
  /// relative is conservative for double precision.
  double grad_tol = 1e-9;
  /// Multiplier negativity tolerance for the KKT certificate.
  double kkt_tol = 1e-8;
  /// Relative Frank-Wolfe gap at which the solve stops with
  /// SolveStatus::kCertified, once f* <= value + gap_tolerance * |value|
  /// is certified. 0 turns the check off: the solve then ends on its KKT
  /// certificate, bit-identical to a solve without the check.
  ///
  /// A gap-stopped answer is near-optimal in utility, not sparse: on the
  /// 102,810-link scale instance at its default budget, a gap of 1e-2
  /// (or 1e-4) stops with all 12,390 candidate monitors active, against
  /// 578 at the KKT point (1e-6: 4,752; 1e-8: 590). The paper's few
  /// low-rate monitors appear only near the KKT point.
  double gap_tolerance = 0.0;
  /// Generic path only: mix the previous direction per Polak-Ribiere
  /// (paper §IV-D: avoids the zigzag path of pure projected gradients).
  /// Off = plain projection (ablation). The fused path takes Newton-CG
  /// steps on a settled face instead and ignores this switch.
  bool polak_ribiere = true;
  /// 1-D search configuration (Newton by default; bisection ablation).
  LineSearchOptions line_search;
  /// Use the fused evaluation path when the objective is separable:
  /// value + gradient + per-term derivatives from one matrix traversal,
  /// inner products rho = R p maintained incrementally across steps, and
  /// line-search probes that never touch the matrix. Off = the generic
  /// per-virtual path, byte-for-byte the historical iteration (ablation
  /// and bit-identity reference).
  bool use_fused = true;
  /// Cooperative cancellation hook, polled between iterations with the
  /// number of completed iterations. Returning true stops the solve with
  /// SolveStatus::kCancelled and the best-so-far (feasible) point. The
  /// serving layer uses this for per-request deadlines and iteration
  /// budgets; when unset the iteration path is byte-for-byte unchanged.
  std::function<bool(int iterations)> should_stop;
  /// Optional iteration trace sink (obs/trace.hpp). When set, the solver
  /// appends one record per iteration plus a final summary record whose
  /// KKT fields equal the SolveResult report. Recording is lock-free and
  /// allocation-free, so the hot loop stays zero-allocation; when null
  /// the iterate sequence is bit-identical to the untraced solve (the
  /// trace only reads solver state, never steers it).
  obs::SolverTrace* trace = nullptr;
  /// Metric counter handles bumped once per solve (iterations, release
  /// events, completions, cancellations). Default handles are detached
  /// no-ops costing one branch each at solve exit.
  obs::SolverCounters counters;
  /// Intra-solve parallelism: when set and the objective is separable
  /// with at least `parallel_min_terms` terms, the per-iteration
  /// evaluation work — inner-product spmv, fused term kernels, gradient
  /// scatter, line-search probes, projection/update writes — is sharded
  /// across this pool with deterministic chunking. Order-sensitive
  /// reductions stay serial, so the iterate sequence (and hence the
  /// SolveResult) is bit-identical to the serial solve at every thread
  /// count; the knob changes throughput only. Borrowed; must outlive the
  /// solve. Safe to use from tasks already running on the same pool
  /// (TaskGroup waits help instead of blocking).
  runtime::ThreadPool* pool = nullptr;
  /// Term-count threshold below which `pool` is ignored: paper-scale
  /// instances (GEANT: dozens of terms) keep the historical
  /// single-threaded fast path with zero added overhead.
  std::size_t parallel_min_terms = 8192;
};

/// Why the solver stopped.
enum class SolveStatus {
  /// KKT certificate holds: global optimum.
  kOptimal,
  /// Iteration cap reached before certification.
  kIterationLimit,
  /// SolverOptions::should_stop asked for an early exit (deadline or
  /// iteration budget). The returned point is feasible but uncertified.
  kCancelled,
  /// The Frank-Wolfe gap met SolverOptions::gap_tolerance: the point is
  /// within SolveResult::certificate of the optimum, not necessarily at
  /// it. Keep this the last value (kLastSolveStatus).
  kCertified,
};

/// The highest SolveStatus value; decoders bound status bytes by it.
inline constexpr SolveStatus kLastSolveStatus = SolveStatus::kCertified;

/// Solver outcome and diagnostics.
struct SolveResult {
  std::vector<double> p;
  double value = 0.0;
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Iterations executed (one per search direction, as in the paper).
  int iterations = 0;
  /// Number of times active constraints with negative multipliers had to
  /// be released (paper §IV-D reports 1.64 +- 1.17 on their data). Arc
  /// steps free coordinates too, without counting here.
  int release_events = 0;
  /// Budget multiplier lambda at termination.
  double lambda = 0.0;
  /// Most negative bound multiplier at termination (>= -tol if optimal).
  double worst_multiplier = 0.0;
  /// Final active-set classification of every coordinate.
  std::vector<BoundState> bounds;
  /// Frank-Wolfe certificate of `p`: f* <= certificate.upper_bound.
  GapCertificate certificate;
};

/// All iteration scratch of one maximize() call: the objective-evaluation
/// workspace plus the solver's own per-iteration vectors and the KKT
/// report. Pass the same instance to repeated solves (warm starts, batch
/// fan-out) and the iteration loop performs no heap allocations after the
/// first call has grown the buffers. Not shareable between threads.
struct SolverWorkspace {
  linalg::EvalWorkspace eval;
  std::vector<double> g;        // gradient
  std::vector<double> s;        // projected gradient
  std::vector<double> d;        // search direction
  std::vector<double> s_prev;   // previous projected gradient (PR mixing)
  std::vector<double> d_prev;   // previous direction (PR mixing)
  std::vector<double> dir_tmp;  // re-projection scratch for mixed d
  std::vector<double> y;        // arc step: p + t g, before projection
  std::vector<double> p_prev;   // previous iterate (Barzilai-Borwein pair)
  std::vector<double> g_prev;   // previous gradient (Barzilai-Borwein pair)
  std::vector<double> x;        // maintained inner products (fused path)
  // Newton-CG on the face (fused path), compact over the free coordinates.
  std::vector<std::size_t> free_cols;  // the free coordinates, ascending
  std::vector<double> cg_u;     // budget normal restricted to them
  std::vector<double> cg_d;     // CG solution (the Newton direction)
  std::vector<double> cg_r;     // CG residual
  std::vector<double> cg_p;     // CG search direction
  std::vector<double> cg_hp;    // (P H P) applied to cg_p
  std::vector<double> cg_w;     // R_F v per term (term_count)
  SeparableRestriction restriction;  // line-search probes (fused path)
  KktReport kkt;
  std::vector<KnapsackItem> fill;  // certificate knapsack items
};

/// Maximizes `f` over `constraints`. `start` overrides the default
/// feasible starting point (must itself be feasible). `workspace`, when
/// given, supplies all iteration scratch (reused across calls); when
/// null a call-local workspace is used.
SolveResult maximize(const Objective& f,
                     const BoxBudgetConstraints& constraints,
                     const SolverOptions& options = {},
                     const std::vector<double>* start = nullptr,
                     SolverWorkspace* workspace = nullptr);

}  // namespace netmon::opt
