// Observability of the serving layer: injectable clock driving deadline
// expiry deterministically, flight-recorder event ordering, and the
// shared Prometheus/trace export of serve + solver metrics.
#include "serve/serve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "obs/obs.hpp"
#include "tenant/service.hpp"

namespace netmon::serve {
namespace {

using namespace std::chrono_literals;
using tenant::TenantService;
using tenant::TenantServiceOptions;

/// A single-model deployment: the line model as the registry's one
/// (hence default) tenant. The solve cache is off, so every request runs
/// the solver and its full dispatch lifecycle.
struct LineModel {
  tenant::TenantRegistry registry;

  LineModel() {
    tenant::TenantModel model;
    model.graph = test::line_graph();
    model.task.ods = {{0, 3}, {1, 3}};
    model.task.expected_packets = {5000.0, 3000.0};
    model.loads.assign(model.graph.link_count(), 1000.0);
    model.problem.theta = 50000.0;
    registry.publish("line", std::move(model));
  }

  std::unique_ptr<TenantService> server(TenantServiceOptions options = {}) {
    options.cache.max_entries = 0;
    return std::make_unique<TenantService>(registry, options);
  }
};

struct ServeObsTest : ::testing::Test {
  LineModel model;
};

Request solve_request(std::uint64_t id) {
  Request request;
  request.id = id;
  return request;
}

TEST_F(ServeObsTest, ManualClockDrivesDeadlineExpiryWithoutSleeps) {
  // The deadline check and the timestamps share one injected clock, so
  // advancing it while the dispatcher is parked expires the request
  // deterministically — no sleeps, no wall-clock races.
  obs::ManualClock clock;
  TenantServiceOptions options;
  options.start_paused = true;
  options.clock = &clock;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  Request request;
  request.id = 9;
  request.deadline_ms = 50;
  std::future<Response> future = client.send(std::move(request));

  clock.advance(100ms);  // past the deadline, in virtual time only
  srv->resume();

  const Response response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kDeadlineExpired);
  EXPECT_NE(response.error.find("in queue"), std::string::npos);
  EXPECT_EQ(test::counter(srv->metrics(),
                          "netmon_serve_expired_in_queue_total"),
            1u);

  // The flight recorder saw the miss, timestamped by the same clock.
  const auto events = srv->flight_recorder().dump();
  const auto miss = std::find_if(events.begin(), events.end(), [](auto& e) {
    return e.event == obs::ServeEvent::kDeadlineMissQueue;
  });
  ASSERT_NE(miss, events.end());
  EXPECT_EQ(miss->request_id, 9u);
}

TEST_F(ServeObsTest, ManualClockBeforeDeadlineStillServes) {
  obs::ManualClock clock;
  TenantServiceOptions options;
  options.start_paused = true;
  options.clock = &clock;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  Request request;
  request.id = 10;
  request.deadline_ms = 50;
  std::future<Response> future = client.send(std::move(request));

  clock.advance(10ms);  // within the deadline
  srv->resume();
  EXPECT_EQ(future.get().status, ResponseStatus::kOk);
}

TEST_F(ServeObsTest, FlightRecorderCapturesTheRequestLifecycleInOrder) {
  auto srv = model.server();
  LoopbackTransport client(*srv);

  const Response response = client.call(solve_request(42));
  ASSERT_EQ(response.status, ResponseStatus::kOk);

  const auto events = srv->flight_recorder().dump();
  auto index_of = [&](obs::ServeEvent event) -> std::ptrdiff_t {
    const auto it = std::find_if(events.begin(), events.end(), [&](auto& e) {
      return e.event == event;
    });
    return it == events.end() ? -1 : it - events.begin();
  };

  const std::ptrdiff_t miss = index_of(obs::ServeEvent::kCacheMiss);
  const std::ptrdiff_t admit = index_of(obs::ServeEvent::kAdmit);
  const std::ptrdiff_t dequeue = index_of(obs::ServeEvent::kDequeue);
  const std::ptrdiff_t batch = index_of(obs::ServeEvent::kBatchFormed);
  const std::ptrdiff_t done = index_of(obs::ServeEvent::kSolveDone);
  ASSERT_GE(miss, 0);
  ASSERT_GE(admit, 0);
  ASSERT_GE(dequeue, 0);
  ASSERT_GE(batch, 0);
  ASSERT_GE(done, 0);
  EXPECT_LT(miss, admit);
  EXPECT_LT(admit, dequeue);
  EXPECT_LT(dequeue, batch);
  EXPECT_LT(batch, done);

  EXPECT_EQ(events[static_cast<std::size_t>(miss)].request_id, 42u);
  EXPECT_EQ(events[static_cast<std::size_t>(admit)].request_id, 42u);
  EXPECT_EQ(events[static_cast<std::size_t>(done)].request_id, 42u);
  // Timestamps come from one monotonic clock: never decreasing.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].t_ns, events[i - 1].t_ns);

  // JSONL export: one line per event, named event strings.
  const std::string jsonl = srv->flight_recorder().jsonl();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            events.size());
  EXPECT_NE(jsonl.find(R"("event":"cache_miss")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("event":"admit")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("event":"solve_done")"), std::string::npos);
}

TEST_F(ServeObsTest, ZeroCapacityDisablesTheFlightRecorder) {
  TenantServiceOptions options;
  options.flight_recorder = 0;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);
  client.call(solve_request(1));

  EXPECT_FALSE(srv->flight_recorder().enabled());
  EXPECT_TRUE(srv->flight_recorder().dump().empty());
}

TEST_F(ServeObsTest, PrometheusExportCoversServeAndSolverMetrics) {
  auto srv = model.server();
  LoopbackTransport client(*srv);
  client.call(solve_request(1));
  client.call(solve_request(2));

  const std::string text = srv->prometheus();
  EXPECT_NE(text.find("netmon_serve_submitted_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("netmon_serve_served_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE netmon_serve_queue_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("netmon_serve_batch_size_count"), std::string::npos);
  // Solver metrics registered by the service's BatchSolver live in the
  // same registry and export in the same pass.
  EXPECT_NE(text.find("netmon_solver_solves_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("netmon_solver_iterations_total"), std::string::npos);
  EXPECT_NE(text.find("netmon_solver_iterations_bucket{le=\"2000\"}"),
            std::string::npos);
}

TEST_F(ServeObsTest, SolverTraceFlowsThroughTheService) {
  obs::SolverTrace trace(1024);
  TenantServiceOptions options;
  options.solver_trace = &trace;
  auto srv = model.server(options);
  LoopbackTransport client(*srv);

  const Response response = client.call(solve_request(5));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.solutions.size(), 1u);

  const auto records = trace.snapshot();
  ASSERT_FALSE(records.empty());
  const obs::TraceRecord& last = records.back();
  ASSERT_TRUE(last.final_record);
  // The trace's final record reports the same KKT numbers the response
  // carries — bit-exact, one shared code path.
  EXPECT_EQ(last.kkt_lambda, response.solutions[0].lambda);
  EXPECT_EQ(static_cast<int>(last.iteration),
            response.solutions[0].iterations);
  EXPECT_EQ(static_cast<opt::SolveStatus>(last.status),
            response.solutions[0].status);
}

}  // namespace
}  // namespace netmon::serve
