// SolverTrace: per-iteration recording for the gradient-projection
// solver, plus the registry counter bundle the solver hot loop bumps.
//
// The trace is an opt-in SolverOptions hook: when attached, the solver
// appends one record per iteration (what kind of step it took,
// objective, gradient norms, step length, active-set and restriction
// sizes, KKT numbers when they were computed that iteration,
// fused-vs-generic path) and one final summary
// record whose KKT fields equal the SolveResult's report. Storage is a
// pre-sized lock-free ring (obs/ring.hpp): recording allocates nothing,
// so the solver hot loop stays zero-allocation with tracing enabled, and
// many concurrent solves (core::BatchSolver fan-out, serve batches) can
// share one trace — records interleave but each carries its solve id.
//
// Export is JSONL: one JSON object per record, the schema
// scripts/check_obs.sh validates in CI.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace netmon::obs {

/// What one trace record's iteration did.
enum class StepKind : std::uint8_t {
  /// A step along the projected gradient (Polak-Ribiere-mixed on the
  /// generic path), or the bound activation that replaces it when a bound
  /// blocks it.
  kFace,
  /// A projection-arc step d = P_X(p + t g) - p.
  kArc,
  /// A truncated Newton-CG step on a settled face (fused path), along
  /// the Newton direction or its chord P_F(p + d) - p onto the face.
  kNewton,
  /// A KKT check that released bounds with negative multipliers.
  kRelease,
  /// A KKT check that certified the optimum (the solve stops).
  kOptimal,
  /// The Frank-Wolfe gap met SolverOptions::gap_tolerance (the solve
  /// stops).
  kCertified,
  /// The summary record appended after the loop exits.
  kSummary,
};

/// The JSONL name of `kind`: face, arc, newton, release, optimal,
/// certified, summary.
const char* step_kind_name(StepKind kind) noexcept;

/// One solver iteration (or the final summary when `final` is set).
/// Doubles default to NaN = "not computed this iteration"; the JSONL
/// export renders NaN as null.
struct TraceRecord {
  std::uint64_t solve_id = 0;
  std::uint32_t iteration = 0;
  /// Set on the one summary record appended after the loop exits.
  bool final_record = false;
  /// Fused evaluation path (vs the generic per-virtual path).
  bool fused = false;
  /// opt::SolveStatus at exit, meaningful on the final record.
  std::uint8_t status = 0;
  StepKind kind = StepKind::kFace;
  double value = 0.0;
  /// Gradient infinity norm |g|_inf and projected-gradient 2-norm.
  double grad_inf = 0.0;
  double proj_grad_norm = 0.0;
  /// Line-search step length (0 when no step was taken).
  double step = 0.0;
  /// Coordinates pinned at a bound.
  std::uint32_t active_set = 0;
  /// Line-search restriction size (fused path; 0 otherwise).
  std::uint32_t restriction_terms = 0;
  /// KKT report of this iteration (NaN when the multipliers were not
  /// computed). On the final record these match SolveResult::lambda and
  /// SolveResult::worst_multiplier exactly.
  double kkt_lambda = 0.0;
  double kkt_residual = 0.0;
  /// CG iterations (Hessian-vector products) of a kNewton step; 0 on
  /// every other kind.
  std::uint32_t cg_iterations = 0;
};

/// Pre-sized ring of TraceRecords; thread-safe and allocation-free on
/// the record path.
class SolverTrace {
 public:
  /// Capacity in records, rounded up to a power of two.
  explicit SolverTrace(std::size_t capacity = 4096);

  /// Claims a process-unique id for one maximize() call, so records of
  /// concurrent solves sharing this trace can be told apart.
  std::uint64_t begin_solve() noexcept {
    return next_solve_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Appends one record. Lock-free, allocation-free.
  void record(const TraceRecord& record) noexcept;

  /// Records ever appended (the ring retains the last capacity()).
  std::uint64_t total_recorded() const noexcept { return ring_.total(); }
  std::size_t capacity() const noexcept { return ring_.capacity(); }

  /// Retained records, oldest first.
  std::vector<TraceRecord> snapshot() const;

  /// One JSON object per retained record, newline-terminated.
  void write_jsonl(std::ostream& out) const;
  std::string jsonl() const;

 private:
  static constexpr std::size_t kWords = 11;
  AtomicRing<kWords> ring_;
  std::atomic<std::uint64_t> next_solve_id_{0};
};

/// The counters the solver iteration loop bumps when instrumented.
/// Default handles are detached no-ops, so an un-instrumented solve pays
/// one branch per counter site.
struct SolverCounters {
  Counter iterations;
  Counter release_events;
  Counter solves;
  Counter cancelled;
};

/// Registers the solver counter family on `registry` (idempotent).
SolverCounters register_solver_counters(MetricsRegistry& registry);

}  // namespace netmon::obs
