// Stress: many concurrent producers hammering a deliberately tiny queue.
// Every future must resolve with a typed response (admission and
// backpressure never lose a request), and the stats must balance. Runs
// under TSan in CI (scripts/ci.sh) to certify the queue/dispatcher/pool
// interplay data-race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serve/serve.hpp"
#include "helpers.hpp"
#include "tenant/service.hpp"

namespace netmon::serve {
namespace {

using namespace std::chrono_literals;

struct Tally {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> shutdown{0};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> other{0};

  void record(ResponseStatus status) {
    switch (status) {
      case ResponseStatus::kOk: ++ok; break;
      case ResponseStatus::kRejectedQueueFull: ++rejected; break;
      case ResponseStatus::kDeadlineExpired: ++expired; break;
      case ResponseStatus::kShutdown: ++shutdown; break;
      case ResponseStatus::kBadRequest: ++bad; break;
      default: ++other; break;
    }
  }

  std::uint64_t total() const {
    return ok + rejected + expired + shutdown + bad + other;
  }
};

/// The line model with the given task, at theta 50000.
tenant::TenantModel line_model(std::vector<routing::OdPair> ods,
                               std::vector<double> expected_packets) {
  tenant::TenantModel model;
  model.graph = test::line_graph();
  model.task.ods = std::move(ods);
  model.task.expected_packets = std::move(expected_packets);
  model.loads.assign(model.graph.link_count(), 1000.0);
  model.problem.theta = 50000.0;
  return model;
}

TEST(ServeStress, ConcurrentProducersAgainstTinyQueue) {
  tenant::TenantRegistry registry;
  registry.publish("line", line_model({{0, 3}, {1, 3}}, {5000.0, 3000.0}));

  tenant::TenantServiceOptions options;
  options.queue_capacity = 4;  // tiny on purpose: exercise backpressure
  options.batch.max_batch = 3;
  options.batch.linger = 1ms;
  options.cache.max_entries = 0;  // every admitted request is queued
  tenant::TenantService server(registry, options);

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 40;
  Tally tally;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      LoopbackTransport client(server, /*via_wire=*/p % 2 == 0);
      std::vector<std::future<Response>> futures;
      for (int i = 0; i < kPerProducer; ++i) {
        Request request;
        request.id =
            static_cast<std::uint64_t>(p) * kPerProducer + i;
        switch (i % 4) {
          case 0:
            break;  // plain solve
          case 1:
            request.kind = RequestKind::kWhatIfBatch;
            // Link 1 is a reverse-direction link no task path uses, so
            // the scenario stays routable.
            request.what_if = {{1}};
            break;
          case 2:
            request.iteration_budget = 1;  // deterministic truncation
            break;
          case 3:
            request.deadline_ms = 1;  // may expire in queue or mid-solve
            break;
        }
        futures.push_back(client.send(std::move(request)));
        if (i % 8 == 7) std::this_thread::yield();
      }
      for (auto& future : futures) tally.record(future.get().status);
    });
  }
  for (auto& producer : producers) producer.join();

  // Every single request was answered, with a typed status.
  EXPECT_EQ(tally.total(), static_cast<std::uint64_t>(kProducers) *
                               kPerProducer);
  EXPECT_EQ(tally.other, 0u);
  EXPECT_EQ(tally.bad, 0u);
  EXPECT_EQ(tally.shutdown, 0u);
  EXPECT_GT(tally.ok, 0u);

  const obs::RegistrySnapshot stats = server.metrics().snapshot();
  auto count = [&](const char* name) {
    return static_cast<std::uint64_t>(stats.find(name)->value);
  };
  EXPECT_EQ(count("netmon_serve_submitted_total"), tally.total());
  EXPECT_EQ(count("netmon_serve_rejected_queue_full_total"), tally.rejected);
  EXPECT_EQ(count("netmon_serve_served_total"), tally.ok);
  EXPECT_EQ(count("netmon_serve_expired_in_queue_total") +
                count("netmon_serve_expired_mid_solve_total"),
            tally.expired);
  EXPECT_EQ(count("netmon_serve_submitted_total"),
            count("netmon_serve_enqueued_total") +
                count("netmon_serve_rejected_queue_full_total"));
  EXPECT_LE(stats.find("netmon_serve_batch_size")->max, 3.0);
  EXPECT_LE(stats.find("netmon_serve_queue_depth")->max, 4.0);

  // Stopping with traffic settled is idempotent and answers nothing new.
  server.stop();
  server.stop();
  EXPECT_EQ(test::counter(server.metrics(),
                          "netmon_serve_rejected_shutdown_total"),
            0u);
}

TEST(ServeStress, SubmittersRacingShutdownAlwaysGetAnswers) {
  tenant::TenantRegistry registry;
  registry.publish("line", line_model({{0, 3}}, {5000.0}));

  tenant::TenantServiceOptions options;
  options.queue_capacity = 4;
  options.cache.max_entries = 0;
  tenant::TenantService server(registry, options);

  Tally tally;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      LoopbackTransport client(server);
      std::vector<std::future<Response>> futures;
      for (int i = 0; i < 30; ++i) {
        Request request;
        request.id = static_cast<std::uint64_t>(p * 100 + i);
        futures.push_back(client.send(std::move(request)));
      }
      for (auto& future : futures) tally.record(future.get().status);
    });
  }
  // Stop while producers are mid-stream.
  std::this_thread::sleep_for(1ms);
  server.stop();
  for (auto& producer : producers) producer.join();

  EXPECT_EQ(tally.total(), 120u);
  EXPECT_EQ(tally.other, 0u);
  EXPECT_EQ(tally.expired, 0u);
  EXPECT_EQ(tally.bad, 0u);
}

}  // namespace
}  // namespace netmon::serve
