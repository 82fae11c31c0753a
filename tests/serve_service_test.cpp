// The serving layer's contract: responses bit-identical to direct solver
// calls under any batching policy, and typed (never silent) rejections.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/reoptimize.hpp"
#include "core/scenario.hpp"
#include "core/solver.hpp"
#include "helpers.hpp"
#include "obs/export.hpp"
#include "tenant/service.hpp"

namespace netmon::serve {
namespace {

using namespace std::chrono_literals;
using tenant::TenantService;
using tenant::TenantServiceOptions;

core::ProblemOptions at_theta(double theta) {
  core::ProblemOptions options;
  options.theta = theta;
  return options;
}

/// A single-model deployment: the registry's one (hence default) tenant
/// behind a TenantService. The solve cache is off, so every request runs
/// the solver path these tests pin against direct solves.
std::unique_ptr<TenantService> serve_default(tenant::TenantRegistry& registry,
                                             TenantServiceOptions options) {
  options.cache.max_entries = 0;
  return std::make_unique<TenantService>(registry, options);
}

// A tiny model (4-node line, 6 links) so queue/deadline mechanics run in
// microseconds; the GEANT fixture below covers solver-level identity.
struct LineModel {
  topo::Graph graph = test::line_graph();
  core::MeasurementTask task;
  traffic::LinkLoads loads;
  tenant::TenantRegistry registry;

  LineModel() {
    task.ods = {{0, 3}, {1, 3}};
    task.expected_packets = {5000.0, 3000.0};
    loads.assign(graph.link_count(), 1000.0);
    registry.publish("line", {graph, task, loads, at_theta(50000.0)});
  }

  std::unique_ptr<TenantService> server(TenantServiceOptions options = {}) {
    return serve_default(registry, options);
  }
};

struct ServeLineTest : ::testing::Test {
  LineModel model;
};

Request solve_request(std::uint64_t id) {
  Request request;
  request.id = id;
  return request;
}

std::uint64_t counter(const TenantService& srv, const std::string& name) {
  return test::counter(srv.metrics(), name);
}

double histogram_max(const TenantService& srv, const std::string& name) {
  const obs::RegistrySnapshot snapshot = srv.metrics().snapshot();
  const obs::MetricSnapshot* metric = snapshot.find(name);
  return metric != nullptr ? metric->max : 0.0;
}

struct ServeGeantTest : ::testing::Test {
  core::GeantScenario scenario = core::make_geant_scenario();
  tenant::TenantRegistry registry;

  ServeGeantTest() {
    registry.publish("geant",
                     {scenario.net.graph, scenario.task, scenario.loads, {}});
  }

  std::unique_ptr<TenantService> server(TenantServiceOptions options = {}) {
    return serve_default(registry, options);
  }
};

TEST_F(ServeGeantTest, SolveMatchesDirectSolverBitExactly) {
  auto srv = server();
  LoopbackTransport client(*srv);

  Request request;
  request.id = 7;
  const Response response = client.call(request);

  EXPECT_EQ(response.id, 7u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.solutions.size(), 1u);

  const core::PlacementSolution direct =
      core::solve_placement(core::make_problem(scenario));
  EXPECT_EQ(response.solutions[0].rates, direct.rates);
  EXPECT_EQ(response.solutions[0].total_utility, direct.total_utility);
  EXPECT_EQ(response.solutions[0].lambda, direct.lambda);
  EXPECT_EQ(response.solutions[0].iterations, direct.iterations);
}

TEST_F(ServeGeantTest, WhatIfBatchMatchesDirectScenarioSolves) {
  auto srv = server();
  LoopbackTransport client(*srv);

  Request request;
  request.kind = RequestKind::kWhatIfBatch;
  request.what_if = {{0}, {1}, {2, 3}};
  const Response response = client.call(request);

  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.solutions.size(), request.what_if.size());
  for (std::size_t i = 0; i < request.what_if.size(); ++i) {
    core::ProblemOptions options;
    for (topo::LinkId id : request.what_if[i]) options.failed.insert(id);
    const core::PlacementSolution direct =
        core::solve_placement(core::make_problem(scenario, options));
    EXPECT_EQ(response.solutions[i].rates, direct.rates) << "scenario " << i;
  }
}

TEST_F(ServeGeantTest, ThetaSweepMatchesDirectSolves) {
  auto srv = server();
  LoopbackTransport client(*srv);

  Request request;
  request.kind = RequestKind::kThetaSweep;
  request.thetas = {40000.0, 100000.0, 250000.0};
  const Response response = client.call(request);

  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.sweep.size(), request.thetas.size());
  for (std::size_t i = 0; i < request.thetas.size(); ++i) {
    const core::PlacementSolution direct = core::solve_placement(
        core::make_problem(scenario, at_theta(request.thetas[i])));
    EXPECT_EQ(response.sweep[i].theta, request.thetas[i]);
    EXPECT_EQ(response.sweep[i].total_utility, direct.total_utility);
    EXPECT_EQ(response.sweep[i].lambda, direct.lambda);
    EXPECT_EQ(response.sweep[i].active_monitors,
              direct.active_monitors.size());
  }
}

TEST_F(ServeGeantTest, AccuracyReportMatchesDirectSolve) {
  auto srv = server();
  LoopbackTransport client(*srv);

  Request request;
  request.kind = RequestKind::kAccuracyReport;
  const Response response = client.call(request);

  ASSERT_EQ(response.status, ResponseStatus::kOk);
  const core::PlacementSolution direct =
      core::solve_placement(core::make_problem(scenario));
  ASSERT_EQ(response.accuracy.size(), direct.per_od.size());
  for (std::size_t k = 0; k < direct.per_od.size(); ++k) {
    EXPECT_EQ(response.accuracy[k].od, direct.per_od[k].od);
    EXPECT_EQ(response.accuracy[k].rho_approx, direct.per_od[k].rho_approx);
    EXPECT_EQ(response.accuracy[k].rho_exact, direct.per_od[k].rho_exact);
    EXPECT_EQ(response.accuracy[k].predicted_accuracy,
              direct.per_od[k].predicted_accuracy);
  }
}

TEST_F(ServeGeantTest, WarmStartMatchesResolveWarm) {
  const core::PlacementSolution base =
      core::solve_placement(core::make_problem(scenario));

  auto srv = server();
  LoopbackTransport client(*srv);
  Request request;
  request.theta = 130000.0;
  request.warm_start = base.rates;
  const Response response = client.call(request);

  ASSERT_EQ(response.status, ResponseStatus::kOk);
  const core::PlacementSolution direct = core::resolve_warm(
      core::make_problem(scenario, at_theta(130000.0)), base.rates);
  EXPECT_EQ(response.solutions[0].rates, direct.rates);
}

// The acceptance criterion: concurrent clients submitting a mixed
// workload get bit-identical answers no matter the thread count, batch
// size, or linger policy — batching composition is invisible.
TEST_F(ServeGeantTest, MixedWorkloadBitIdenticalAcrossServingPolicies) {
  auto make_requests = [] {
    std::vector<Request> requests;
    for (std::uint64_t i = 0; i < 4; ++i) {
      Request solve;
      solve.id = 100 + i;
      solve.theta = 60000.0 + 20000.0 * static_cast<double>(i);
      requests.push_back(solve);
    }
    Request what_if;
    what_if.id = 200;
    what_if.kind = RequestKind::kWhatIfBatch;
    what_if.what_if = {{0}, {5}};
    requests.push_back(what_if);
    Request sweep;
    sweep.id = 300;
    sweep.kind = RequestKind::kThetaSweep;
    sweep.thetas = {50000.0, 150000.0};
    requests.push_back(sweep);
    return requests;
  };

  struct Policy {
    unsigned threads;
    std::size_t max_batch;
    std::chrono::milliseconds linger;
    bool via_wire;
  };
  const Policy policies[] = {{1, 1, 0ms, false},
                             {4, 16, 5ms, false},
                             {2, 3, 1ms, true}};

  std::vector<std::vector<Response>> runs;
  for (const Policy& policy : policies) {
    TenantServiceOptions options;
    options.threads = policy.threads;
    options.batch.max_batch = policy.max_batch;
    options.batch.linger = policy.linger;
    auto srv = server(options);
    LoopbackTransport client(*srv, policy.via_wire);

    // Concurrent producers, like N operator consoles.
    std::vector<std::future<Response>> futures;
    for (Request& request : make_requests())
      futures.push_back(client.send(std::move(request)));
    std::vector<Response> responses;
    for (auto& f : futures) responses.push_back(f.get());
    runs.push_back(std::move(responses));
  }

  const std::vector<Response>& baseline = runs[0];
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const Response& a = baseline[i];
      const Response& b = runs[run][i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.status, b.status);
      ASSERT_EQ(a.solutions.size(), b.solutions.size());
      for (std::size_t j = 0; j < a.solutions.size(); ++j) {
        EXPECT_EQ(a.solutions[j].rates, b.solutions[j].rates);
        EXPECT_EQ(a.solutions[j].total_utility, b.solutions[j].total_utility);
      }
      EXPECT_EQ(a.sweep, b.sweep);
      EXPECT_EQ(a.accuracy, b.accuracy);
    }
  }
}

TEST_F(ServeLineTest, QueueFullRejectsWithTypedResponse) {
  TenantServiceOptions options;
  options.queue_capacity = 1;
  options.start_paused = true;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  std::future<Response> admitted = client.send(solve_request(1));
  std::future<Response> rejected = client.send(solve_request(2));

  // The rejection is immediate and typed — no waiting on the dispatcher.
  ASSERT_EQ(rejected.wait_for(0s), std::future_status::ready);
  const Response response = rejected.get();
  EXPECT_EQ(response.id, 2u);
  EXPECT_EQ(response.status, ResponseStatus::kRejectedQueueFull);
  EXPECT_NE(response.error.find("queue full"), std::string::npos);

  srv->resume();
  EXPECT_EQ(admitted.get().status, ResponseStatus::kOk);

  EXPECT_EQ(counter(*srv, "netmon_serve_submitted_total"), 2u);
  EXPECT_EQ(counter(*srv, "netmon_serve_rejected_queue_full_total"), 1u);
  EXPECT_EQ(counter(*srv, "netmon_serve_served_total"), 1u);
}

TEST_F(ServeLineTest, DeadlineExpiresInQueue) {
  TenantServiceOptions options;
  options.start_paused = true;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  Request request;
  request.id = 9;
  request.deadline_ms = 1;
  std::future<Response> future = client.send(std::move(request));
  std::this_thread::sleep_for(20ms);  // let the deadline pass while parked
  srv->resume();

  const Response response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kDeadlineExpired);
  EXPECT_NE(response.error.find("in queue"), std::string::npos);
  EXPECT_EQ(counter(*srv, "netmon_serve_expired_in_queue_total"), 1u);
}

TEST_F(ServeGeantTest, IterationBudgetTruncatesMidSolveDeterministically) {
  auto srv = server();
  LoopbackTransport client(*srv);

  Request request;
  request.iteration_budget = 1;
  const Response truncated = client.call(request);

  EXPECT_EQ(truncated.status, ResponseStatus::kDeadlineExpired);
  EXPECT_NE(truncated.error.find("iteration budget"), std::string::npos);
  // The truncated (feasible, uncertified) point still comes back.
  ASSERT_EQ(truncated.solutions.size(), 1u);
  EXPECT_EQ(truncated.solutions[0].status, opt::SolveStatus::kCancelled);
  EXPECT_EQ(truncated.solutions[0].iterations, 1);
  EXPECT_EQ(counter(*srv, "netmon_serve_expired_mid_solve_total"), 1u);

  // Deterministic: the same budget truncates at the same point.
  const Response again = client.call([]{ Request r; r.iteration_budget = 1; return r; }());
  EXPECT_EQ(again.solutions[0].rates, truncated.solutions[0].rates);
}

TEST_F(ServeLineTest, WallClockDeadlineExpiresMidSolve) {
  TenantServiceOptions options;
  options.threads = 1;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  // A heavy request (large sweep) with a deadline it cannot possibly
  // meet: expiry may hit in-queue or mid-solve depending on timing, but
  // it must always be a typed kDeadlineExpired.
  Request request;
  request.kind = RequestKind::kThetaSweep;
  for (int i = 0; i < 800; ++i)
    request.thetas.push_back(10000.0 + 100.0 * i);
  request.deadline_ms = 1;
  const Response response = client.call(std::move(request));
  EXPECT_EQ(response.status, ResponseStatus::kDeadlineExpired);
  EXPECT_EQ(counter(*srv, "netmon_serve_expired_in_queue_total") +
                counter(*srv, "netmon_serve_expired_mid_solve_total"),
            1u);
}

TEST_F(ServeLineTest, BadRequestsGetTypedValidationErrors) {
  auto srv = model.server();
  LoopbackTransport client(*srv);

  Request empty_sweep;
  empty_sweep.kind = RequestKind::kThetaSweep;
  EXPECT_EQ(client.call(empty_sweep).status, ResponseStatus::kBadRequest);

  Request bad_link;
  bad_link.failed = {static_cast<topo::LinkId>(model.graph.link_count())};
  EXPECT_EQ(client.call(bad_link).status, ResponseStatus::kBadRequest);

  Request bad_warm;
  bad_warm.warm_start = {0.5};  // wrong dimension
  EXPECT_EQ(client.call(bad_warm).status, ResponseStatus::kBadRequest);

  Request bad_theta;
  bad_theta.theta = -5.0;
  EXPECT_EQ(client.call(bad_theta).status, ResponseStatus::kBadRequest);

  EXPECT_EQ(counter(*srv, "netmon_serve_bad_requests_total"), 4u);
  EXPECT_EQ(counter(*srv, "netmon_serve_served_total"), 0u);
}

TEST_F(ServeLineTest, ShutdownAnswersEveryParkedRequest) {
  TenantServiceOptions options;
  options.start_paused = true;
  options.queue_capacity = 8;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t i = 0; i < 5; ++i)
    futures.push_back(client.send(solve_request(i)));
  srv->stop();

  for (auto& future : futures) {
    const Response response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::kShutdown);
    EXPECT_FALSE(response.error.empty());
  }
  // Submits after stop are rejected, also typed.
  const Response late = client.call(solve_request(99));
  EXPECT_EQ(late.status, ResponseStatus::kShutdown);
  EXPECT_EQ(counter(*srv, "netmon_serve_rejected_shutdown_total"), 6u);
}

TEST_F(ServeLineTest, StatsCountersBalanceAndExportAsJson) {
  TenantServiceOptions options;
  options.batch.max_batch = 4;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t i = 0; i < 6; ++i)
    futures.push_back(client.send(solve_request(i)));
  futures.push_back(client.send([]{ Request r; r.kind = RequestKind::kThetaSweep; return r; }()));
  for (auto& future : futures) future.get();

  const std::uint64_t submitted =
      counter(*srv, "netmon_serve_submitted_total");
  const std::uint64_t served = counter(*srv, "netmon_serve_served_total");
  const std::uint64_t bad = counter(*srv, "netmon_serve_bad_requests_total");
  EXPECT_EQ(submitted, 7u);
  EXPECT_EQ(submitted,
            served + bad +
                counter(*srv, "netmon_serve_rejected_queue_full_total") +
                counter(*srv, "netmon_serve_rejected_shutdown_total") +
                counter(*srv, "netmon_serve_expired_in_queue_total") +
                counter(*srv, "netmon_serve_expired_mid_solve_total"));
  EXPECT_EQ(served, 6u);
  EXPECT_EQ(bad, 1u);
  EXPECT_GE(counter(*srv, "netmon_serve_batches_total"), 1u);
  EXPECT_EQ(counter(*srv, "netmon_serve_problems_solved_total"), 6u);
  EXPECT_GE(histogram_max(*srv, "netmon_serve_batch_size"), 1.0);
  EXPECT_LE(histogram_max(*srv, "netmon_serve_batch_size"), 4.0);

  const std::string json = obs::metrics_jsonl(srv->metrics());
  EXPECT_NE(json.find("\"netmon_serve_submitted_total\""), std::string::npos);
  EXPECT_NE(json.find("\"netmon_serve_queue_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"netmon_serve_solve_ms\""), std::string::npos);
}

TEST_F(ServeLineTest, BatcherRespectsMaxBatchAndLinger) {
  TenantServiceOptions options;
  options.start_paused = true;
  options.batch.max_batch = 2;
  options.queue_capacity = 16;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t i = 0; i < 5; ++i)
    futures.push_back(client.send(solve_request(i)));
  srv->resume();
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, ResponseStatus::kOk);

  EXPECT_LE(histogram_max(*srv, "netmon_serve_batch_size"), 2.0);
  // 5 requests in batches of <= 2
  EXPECT_GE(counter(*srv, "netmon_serve_batches_total"), 3u);
}

TEST_F(ServeLineTest, DestructorDrainsCleanly) {
  // A service destroyed with requests still parked must answer them all
  // (typed) before the promise objects die — no broken futures.
  std::future<Response> parked;
  {
    TenantServiceOptions options;
    options.start_paused = true;
    auto srv = model.server(options);
    LoopbackTransport client(*srv);
    parked = client.send(solve_request(1));
  }
  EXPECT_EQ(parked.get().status, ResponseStatus::kShutdown);
}

}  // namespace
}  // namespace netmon::serve
