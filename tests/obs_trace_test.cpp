#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "core/utility.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "opt/gradient_projection.hpp"

namespace netmon::opt {
namespace {

std::shared_ptr<const Concave1d> log_u(double eps) {
  return std::make_shared<core::LogUtility>(eps);
}

/// The two-variable analytic problem from the gradient-projection tests.
struct Fixture {
  Fixture()
      : f(2, SeparableConcaveObjective::SparseRows{{{0, 1.0}}, {{1, 1.0}}},
          {log_u(0.1), log_u(0.1)}),
        c({1.0, 2.0}, {1.0, 1.0}, 0.5) {}
  SeparableConcaveObjective f;
  BoxBudgetConstraints c;
};

TEST(SolverTrace, OneRecordPerIterationPlusFinalSummary) {
  Fixture fx;
  obs::SolverTrace trace(256);
  SolverOptions options;
  options.trace = &trace;

  const SolveResult result = maximize(fx.f, fx.c, options);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);

  const auto records = trace.snapshot();
  ASSERT_EQ(records.size(),
            static_cast<std::size_t>(result.iterations) + 1);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    EXPECT_FALSE(records[i].final_record);
    EXPECT_EQ(records[i].iteration, i + 1);
    EXPECT_TRUE(records[i].fused);
    EXPECT_EQ(records[i].solve_id, records.back().solve_id);
  }
  EXPECT_TRUE(records.back().final_record);
}

TEST(SolverTrace, FinalRecordMatchesSolveResultExactly) {
  Fixture fx;
  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;

  const SolveResult result = maximize(fx.f, fx.c, options);

  const auto records = trace.snapshot();
  ASSERT_FALSE(records.empty());
  const obs::TraceRecord& last = records.back();
  ASSERT_TRUE(last.final_record);
  // Bit-exact: the summary record stores the SolveResult fields verbatim.
  EXPECT_EQ(last.kkt_lambda, result.lambda);
  EXPECT_EQ(last.kkt_residual, result.worst_multiplier);
  EXPECT_EQ(last.value, result.value);
  EXPECT_EQ(static_cast<int>(last.iteration), result.iterations);
  EXPECT_EQ(static_cast<SolveStatus>(last.status), result.status);
}

TEST(SolverTrace, TracingDoesNotChangeTheSolution) {
  Fixture fx;
  const SolveResult plain = maximize(fx.f, fx.c);

  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  const SolveResult traced = maximize(fx.f, fx.c, options);

  ASSERT_EQ(traced.p.size(), plain.p.size());
  for (std::size_t j = 0; j < plain.p.size(); ++j)
    EXPECT_EQ(traced.p[j], plain.p[j]);  // bit-identical
  EXPECT_EQ(traced.value, plain.value);
  EXPECT_EQ(traced.iterations, plain.iterations);
}

TEST(SolverTrace, DistinctSolvesGetDistinctIds) {
  Fixture fx;
  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  maximize(fx.f, fx.c, options);
  const std::uint64_t first = trace.snapshot().back().solve_id;
  maximize(fx.f, fx.c, options);
  const std::uint64_t second = trace.snapshot().back().solve_id;
  EXPECT_NE(first, second);
}

TEST(SolverTrace, JsonlHasOneObjectPerRecordWithTheSchemaKeys) {
  Fixture fx;
  obs::SolverTrace trace;
  SolverOptions options;
  options.trace = &trace;
  maximize(fx.f, fx.c, options);

  const std::string jsonl = trace.jsonl();
  const auto lines = static_cast<std::size_t>(
      std::count(jsonl.begin(), jsonl.end(), '\n'));
  EXPECT_EQ(lines, trace.snapshot().size());
  for (const char* key :
       {"\"solve\":", "\"iter\":", "\"final\":", "\"fused\":", "\"status\":",
        "\"value\":", "\"grad_inf\":", "\"proj_grad_norm\":", "\"step\":",
        "\"active_set\":", "\"restriction_terms\":", "\"kkt_lambda\":",
        "\"kkt_residual\":", "\"kind\":", "\"cg_iters\":"}) {
    EXPECT_NE(jsonl.find(key), std::string::npos) << key;
  }
}

/// Records of the one traced solve in `trace`, checked for the kinds
/// every solve shares: one record per iteration, numbered in order, the
/// summary last, and KKT numbers exactly on the KKT-check kinds.
std::vector<obs::TraceRecord> checked_records(const obs::SolverTrace& trace,
                                              const SolveResult& result) {
  std::vector<obs::TraceRecord> records = trace.snapshot();
  EXPECT_EQ(records.size(), static_cast<std::size_t>(result.iterations) + 1);
  if (records.empty()) return records;
  EXPECT_EQ(records.back().kind, obs::StepKind::kSummary);
  EXPECT_TRUE(records.back().final_record);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    const obs::TraceRecord& r = records[i];
    EXPECT_EQ(r.iteration, i + 1);
    EXPECT_NE(r.kind, obs::StepKind::kSummary) << "iteration " << i + 1;
    const bool kkt_check =
        r.kind == obs::StepKind::kRelease || r.kind == obs::StepKind::kOptimal;
    EXPECT_EQ(std::isnan(r.kkt_residual), !kkt_check) << "iteration " << i + 1;
    if (r.kind == obs::StepKind::kArc) {
      EXPECT_GT(r.step, 0.0);
    }
    EXPECT_EQ(r.cg_iterations > 0, r.kind == obs::StepKind::kNewton)
        << "iteration " << i + 1;
  }
  return records;
}

std::size_t count_kind(const std::vector<obs::TraceRecord>& records,
                       obs::StepKind kind) {
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [kind](const obs::TraceRecord& r) { return r.kind == kind; }));
}

TEST(SolverTrace, StepKindsCoverFaceArcAndTheKktStop) {
  // Most coordinates of this instance end at 0 from an all-positive
  // start: the solve takes arc steps as well as face steps.
  const test::SparseOptimum inst = test::sparse_optimum_instance(400, 5);
  obs::SolverTrace trace(8192);
  SolverOptions options;
  options.trace = &trace;
  const SolveResult result =
      maximize(inst.objective, inst.constraints, options);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);

  const std::vector<obs::TraceRecord> records = checked_records(trace, result);
  EXPECT_GT(count_kind(records, obs::StepKind::kFace), 0u);
  EXPECT_GT(count_kind(records, obs::StepKind::kArc), 0u);
  EXPECT_EQ(count_kind(records, obs::StepKind::kOptimal), 1u);
  EXPECT_EQ(records[records.size() - 2].kind, obs::StepKind::kOptimal);
  EXPECT_EQ(count_kind(records, obs::StepKind::kRelease),
            static_cast<std::size_t>(result.release_events));
  EXPECT_EQ(count_kind(records, obs::StepKind::kCertified), 0u);
}

TEST(SolverTrace, ReleaseRecordsCountTheReleaseEvents) {
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario, {});
  obs::SolverTrace trace(8192);
  SolverOptions options;
  options.trace = &trace;
  const SolveResult result =
      maximize(problem.objective(), problem.constraints(), options);
  ASSERT_EQ(result.status, SolveStatus::kOptimal);
  ASSERT_GT(result.release_events, 0);

  const std::vector<obs::TraceRecord> records = checked_records(trace, result);
  EXPECT_EQ(count_kind(records, obs::StepKind::kRelease),
            static_cast<std::size_t>(result.release_events));
  EXPECT_EQ(records[records.size() - 2].kind, obs::StepKind::kOptimal);
}

TEST(SolverTrace, NewtonStepsCarryTheirCgIterations) {
  // GEANT's face settles early; the fused path then takes Newton-CG
  // steps, and the generic path never does.
  const core::GeantScenario scenario = core::make_geant_scenario();
  const core::PlacementProblem problem = core::make_problem(scenario, {});
  for (const bool fused : {true, false}) {
    obs::SolverTrace trace(8192);
    SolverOptions options;
    options.trace = &trace;
    options.use_fused = fused;
    const SolveResult result =
        maximize(problem.objective(), problem.constraints(), options);
    ASSERT_EQ(result.status, SolveStatus::kOptimal);
    const std::vector<obs::TraceRecord> records =
        checked_records(trace, result);
    EXPECT_EQ(count_kind(records, obs::StepKind::kNewton) > 0, fused);
  }
  EXPECT_STREQ(obs::step_kind_name(obs::StepKind::kNewton), "newton");

  obs::SolverTrace trace;
  obs::TraceRecord record;
  record.kind = obs::StepKind::kNewton;
  record.active_set = 0xFFFFFFFFu;
  record.cg_iterations = 37;
  trace.record(record);
  const obs::TraceRecord back = trace.snapshot().at(0);
  EXPECT_EQ(back.kind, obs::StepKind::kNewton);
  EXPECT_EQ(back.active_set, 0xFFFFFFFFu);
  EXPECT_EQ(back.cg_iterations, 37u);
  EXPECT_NE(trace.jsonl().find("\"kind\":\"newton\""), std::string::npos);
  EXPECT_NE(trace.jsonl().find("\"cg_iters\":37"), std::string::npos);
}

TEST(SolverTrace, GapStopEndsOnOneCertifiedRecord) {
  const test::SparseOptimum inst = test::sparse_optimum_instance(400, 5);
  obs::SolverTrace trace(8192);
  SolverOptions options;
  options.trace = &trace;
  options.gap_tolerance = 1e-3;
  const SolveResult result =
      maximize(inst.objective, inst.constraints, options);
  ASSERT_EQ(result.status, SolveStatus::kCertified);
  EXPECT_LE(result.certificate.relative_gap, options.gap_tolerance);

  const std::vector<obs::TraceRecord> records = checked_records(trace, result);
  EXPECT_EQ(count_kind(records, obs::StepKind::kCertified), 1u);
  EXPECT_EQ(records[records.size() - 2].kind, obs::StepKind::kCertified);
  EXPECT_EQ(static_cast<SolveStatus>(records.back().status),
            SolveStatus::kCertified);
  EXPECT_NE(trace.jsonl().find("\"kind\":\"certified\""), std::string::npos);
}

TEST(SolverCounters, CountSolvesIterationsAndReleases) {
  Fixture fx;
  obs::MetricsRegistry registry;
  SolverOptions options;
  options.counters = obs::register_solver_counters(registry);

  const SolveResult a = maximize(fx.f, fx.c, options);
  const SolveResult b = maximize(fx.f, fx.c, options);

  const obs::RegistrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("netmon_solver_solves_total")->value, 2.0);
  EXPECT_EQ(snap.find("netmon_solver_iterations_total")->value,
            static_cast<double>(a.iterations + b.iterations));
  EXPECT_EQ(snap.find("netmon_solver_release_events_total")->value,
            static_cast<double>(a.release_events + b.release_events));
  EXPECT_EQ(snap.find("netmon_solver_cancelled_total")->value, 0.0);
}

TEST(SolverCounters, CancelledSolvesAreCounted) {
  Fixture fx;
  obs::MetricsRegistry registry;
  SolverOptions options;
  options.counters = obs::register_solver_counters(registry);
  options.should_stop = [](int iterations) { return iterations >= 1; };

  const SolveResult result = maximize(fx.f, fx.c, options);
  EXPECT_EQ(result.status, SolveStatus::kCancelled);
  EXPECT_EQ(registry.snapshot().find("netmon_solver_cancelled_total")->value,
            1.0);
}

}  // namespace
}  // namespace netmon::opt
