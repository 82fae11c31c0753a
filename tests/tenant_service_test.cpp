// TenantService contract: tenant resolution + typed rejects, exact cache
// hits bit-identical WITHOUT invoking the solver (the solver-invocation
// counter is the proof), warm-started misses, quota enforcement on the
// injected clock, and RCU isolation — in-flight requests answer against
// the snapshot they resolved, swaps notwithstanding.
#include "tenant/tenant.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "helpers.hpp"
#include "obs/clock.hpp"
#include "serve/serve.hpp"

namespace netmon::tenant {
namespace {

using namespace std::chrono_literals;

TenantModel line_model(double theta = 50000.0) {
  TenantModel model;
  model.graph = test::line_graph();
  model.task.ods = {{0, 3}, {1, 3}};
  model.task.expected_packets = {5000.0, 3000.0};
  model.loads.assign(model.graph.link_count(), 1000.0);
  model.problem.theta = theta;
  return model;
}

serve::Request solve_request(std::uint64_t id, const std::string& tenant = "") {
  serve::Request request;
  request.id = id;
  request.tenant = tenant;
  return request;
}

void expect_identical_solutions(const serve::Response& a,
                                const serve::Response& b) {
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].rates, b.solutions[i].rates);
    EXPECT_EQ(a.solutions[i].total_utility, b.solutions[i].total_utility);
    EXPECT_EQ(a.solutions[i].lambda, b.solutions[i].lambda);
    EXPECT_EQ(a.solutions[i].iterations, b.solutions[i].iterations);
    EXPECT_EQ(a.solutions[i].active_monitors, b.solutions[i].active_monitors);
  }
}

TEST(TenantService, UnknownTenantsAreTypedBadRequests) {
  TenantRegistry registry;
  TenantService service(registry);

  // No default yet: even the empty name has nowhere to resolve.
  serve::Response response = service.submit(solve_request(1)).get();
  EXPECT_EQ(response.status, serve::ResponseStatus::kBadRequest);
  EXPECT_NE(response.error.find("no default tenant"), std::string::npos);

  registry.publish("alpha", line_model());
  response = service.submit(solve_request(2, "ghost")).get();
  EXPECT_EQ(response.status, serve::ResponseStatus::kBadRequest);
  EXPECT_NE(response.error.find("unknown tenant"), std::string::npos);
}

TEST(TenantService, ResponsesEchoTheResolvedTenant) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantService service(registry);

  const serve::Response response = service.submit(solve_request(5)).get();
  EXPECT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(response.tenant, "alpha");  // empty name -> default, echoed
  EXPECT_EQ(response.id, 5u);
  ASSERT_EQ(response.solutions.size(), 1u);
}

TEST(TenantService, AnswersMatchADirectSolveBitExactly) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantService service(registry);

  serve::Request request = solve_request(9, "alpha");
  request.failed = {3};
  const serve::Response tenant_answer = service.submit(request).get();
  ASSERT_EQ(tenant_answer.status, serve::ResponseStatus::kOk);

  // The same problem assembled and solved without any serving layer.
  const TenantModel model = line_model();
  core::ProblemOptions options = model.problem;
  options.failed.insert(3);
  serve::Response direct_answer;
  direct_answer.solutions.push_back(core::solve_placement(
      core::PlacementProblem(model.graph, model.task, model.loads, options)));
  expect_identical_solutions(tenant_answer, direct_answer);
}

TEST(TenantService, ExactHitIsBitIdenticalAndNeverInvokesTheSolver) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantService service(registry);

  serve::Request request = solve_request(11, "alpha");
  request.kind = serve::RequestKind::kWhatIfBatch;
  request.what_if = {{1}, {3}};

  const serve::Response first = service.submit(request).get();
  ASSERT_EQ(first.status, serve::ResponseStatus::kOk) << first.error;
  EXPECT_EQ(first.cache, serve::CacheOutcome::kNone);
  const std::uint64_t solves_after_first = service.solver_invocations();
  EXPECT_GT(solves_after_first, 0u);

  serve::Request repeat = request;
  repeat.id = 12;
  const serve::Response second = service.submit(repeat).get();
  ASSERT_EQ(second.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(second.cache, serve::CacheOutcome::kHit);
  EXPECT_EQ(second.id, 12u);  // re-stamped, not the cached id
  EXPECT_EQ(second.tenant, "alpha");
  expect_identical_solutions(first, second);
  // The acceptance probe: a hit replays the answer, it does not solve.
  EXPECT_EQ(service.solver_invocations(), solves_after_first);
  EXPECT_EQ(service.cache().hits(), 1u);
}

TEST(TenantService, CanonicallyEqualSpellingsShareOneCacheEntry) {
  TenantRegistry registry;
  registry.publish("alpha", line_model(50000.0));
  TenantService service(registry);

  // theta omitted vs. the default spelled out; failed in either order.
  serve::Request a = solve_request(1, "alpha");
  a.failed = {3, 1};
  const serve::Response first = service.submit(a).get();
  ASSERT_EQ(first.status, serve::ResponseStatus::kOk);

  serve::Request b = solve_request(2, "alpha");
  b.theta = 50000.0;
  b.failed = {1, 3};
  const serve::Response second = service.submit(b).get();
  EXPECT_EQ(second.cache, serve::CacheOutcome::kHit);
  expect_identical_solutions(first, second);
}

TEST(TenantService, NearMissesWarmStartFromTheCache) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantService service(registry);

  serve::Request seed = solve_request(1, "alpha");
  seed.theta = 50000.0;
  ASSERT_EQ(service.submit(seed).get().status, serve::ResponseStatus::kOk);

  serve::Request close = solve_request(2, "alpha");
  close.theta = 52000.0;
  const serve::Response response = service.submit(close).get();
  ASSERT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(response.cache, serve::CacheOutcome::kWarmStart);
  EXPECT_EQ(service.cache().warm_starts(), 1u);

  // The warm-started answer must still be the true optimum: identical to
  // a cold solve of the same request on a cache-less service.
  TenantRegistry cold_registry;
  cold_registry.publish("alpha", line_model());
  TenantServiceOptions cold_options;
  cold_options.cache.max_entries = 0;
  TenantService cold(cold_registry, cold_options);
  const serve::Response reference = cold.submit(close).get();
  ASSERT_EQ(reference.status, serve::ResponseStatus::kOk);
  ASSERT_EQ(response.solutions.size(), 1u);
  ASSERT_EQ(reference.solutions.size(), 1u);
  EXPECT_EQ(response.solutions[0].active_monitors,
            reference.solutions[0].active_monitors);
  for (std::size_t l = 0; l < reference.solutions[0].rates.size(); ++l)
    EXPECT_NEAR(response.solutions[0].rates[l],
                reference.solutions[0].rates[l], 1e-6)
        << "link " << l;
}

TEST(TenantService, ExplicitWarmStartsAreLeftAlone) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantService service(registry);

  serve::Request seed = solve_request(1, "alpha");
  ASSERT_EQ(service.submit(seed).get().status, serve::ResponseStatus::kOk);

  // A client-provided warm start wins over the cache donor.
  serve::Request explicit_warm = solve_request(2, "alpha");
  explicit_warm.theta = 52000.0;
  explicit_warm.warm_start.assign(
      registry.acquire("alpha")->model().graph.link_count(), 0.1);
  const serve::Response response = service.submit(explicit_warm).get();
  ASSERT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(response.cache, serve::CacheOutcome::kNone);
}

TEST(TenantService, RateLimitRejectsAreTypedAndRecoverOnTheClock) {
  obs::ManualClock clock;
  TenantRegistry registry(&clock);
  registry.publish("alpha", line_model());
  QuotaConfig quota;
  quota.tokens_per_sec = 1.0;
  quota.burst = 2.0;
  registry.set_quota("alpha", quota);

  TenantServiceOptions options;
  options.clock = &clock;
  TenantService service(registry, options);

  EXPECT_EQ(service.submit(solve_request(1, "alpha")).get().status,
            serve::ResponseStatus::kOk);
  EXPECT_EQ(service.submit(solve_request(2, "alpha")).get().status,
            serve::ResponseStatus::kOk);

  serve::Response rejected = service.submit(solve_request(3, "alpha")).get();
  EXPECT_EQ(rejected.status, serve::ResponseStatus::kRejectedQuota);
  EXPECT_NE(rejected.error.find("rate limit"), std::string::npos);
  EXPECT_EQ(rejected.tenant, "alpha");

  clock.advance(1s);
  EXPECT_EQ(service.submit(solve_request(4, "alpha")).get().status,
            serve::ResponseStatus::kOk);
}

TEST(TenantService, InflightCapRejectsWhileRequestsArePending) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  QuotaConfig quota;
  quota.max_inflight = 1;
  registry.set_quota("alpha", quota);

  TenantServiceOptions options;
  options.start_paused = true;  // park the first request in the queue
  TenantService service(registry, options);

  std::future<serve::Response> parked =
      service.submit(solve_request(1, "alpha"));

  serve::Response rejected = service.submit(solve_request(2, "alpha")).get();
  EXPECT_EQ(rejected.status, serve::ResponseStatus::kRejectedQuota);
  EXPECT_NE(rejected.error.find("in-flight"), std::string::npos);

  service.resume();
  EXPECT_EQ(parked.get().status, serve::ResponseStatus::kOk);
  // Completion released the slot.
  EXPECT_EQ(service.submit(solve_request(3, "alpha")).get().status,
            serve::ResponseStatus::kOk);
  EXPECT_EQ(registry.quota("alpha")->inflight(), 0u);
}

TEST(TenantService, TenantsAreIsolatedWithinOneBatch) {
  TenantRegistry registry;
  registry.publish("small", line_model(20000.0));
  registry.publish("large", line_model(200000.0));

  TenantServiceOptions options;
  options.start_paused = true;  // force both tenants into one batch
  options.batch.max_batch = 8;
  TenantService service(registry, options);

  std::future<serve::Response> small_future =
      service.submit(solve_request(1, "small"));
  std::future<serve::Response> large_future =
      service.submit(solve_request(2, "large"));
  service.resume();

  const serve::Response small = small_future.get();
  const serve::Response large = large_future.get();
  ASSERT_EQ(small.status, serve::ResponseStatus::kOk);
  ASSERT_EQ(large.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(small.tenant, "small");
  EXPECT_EQ(large.tenant, "large");
  // Ten times the budget buys a strictly better objective: each slot
  // solved against its own tenant's model.
  EXPECT_LT(small.solutions[0].budget_used, large.solutions[0].budget_used);
  EXPECT_LT(small.solutions[0].total_utility, large.solutions[0].total_utility);
}

TEST(TenantService, InFlightRequestsKeepTheSnapshotTheyResolved) {
  TenantRegistry registry;
  registry.publish("alpha", line_model(50000.0));

  TenantServiceOptions options;
  options.start_paused = true;
  TenantService service(registry, options);

  // Admitted and parked against epoch 1...
  std::future<serve::Response> pinned =
      service.submit(solve_request(1, "alpha"));
  // ...then the registry swaps (and even removes) the tenant.
  registry.publish("alpha", line_model(90000.0));
  service.resume();

  const serve::Response old_epoch = pinned.get();
  ASSERT_EQ(old_epoch.status, serve::ResponseStatus::kOk);

  // A fresh request sees epoch 2 — and must NOT hit epoch 1's cache.
  const serve::Response new_epoch =
      service.submit(solve_request(2, "alpha")).get();
  ASSERT_EQ(new_epoch.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(new_epoch.cache, serve::CacheOutcome::kNone);
  EXPECT_GT(new_epoch.solutions[0].budget_used,
            old_epoch.solutions[0].budget_used);

  // The two epochs answered with their own thetas: repeating each
  // request now hits its own epoch's entry.
  const serve::Response repeat =
      service.submit(solve_request(3, "alpha")).get();
  EXPECT_EQ(repeat.cache, serve::CacheOutcome::kHit);
  expect_identical_solutions(new_epoch, repeat);
}

TEST(TenantService, StopAnswersParkedRequestsWithShutdown) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantServiceOptions options;
  options.start_paused = true;
  TenantService service(registry, options);

  std::future<serve::Response> parked =
      service.submit(solve_request(1, "alpha"));
  service.stop();
  EXPECT_EQ(parked.get().status, serve::ResponseStatus::kShutdown);
  // Post-stop submissions reject immediately.
  EXPECT_EQ(service.submit(solve_request(2, "alpha")).get().status,
            serve::ResponseStatus::kShutdown);
  // Quota slots were released on the shutdown path too.
  EXPECT_EQ(registry.quota("alpha")->inflight(), 0u);
}

TEST(TenantService, MetricsExposeTheTenantAndCacheFamilies) {
  TenantRegistry registry;
  TenantService service(registry);
  // Published after construction: bind() has attached the swap counter.
  registry.publish("alpha", line_model());

  serve::Request request = solve_request(1, "alpha");
  ASSERT_EQ(service.submit(request).get().status, serve::ResponseStatus::kOk);
  request.id = 2;
  ASSERT_EQ(service.submit(request).get().cache, serve::CacheOutcome::kHit);

  const std::string text = service.prometheus();
  EXPECT_NE(text.find("netmon_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("netmon_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("netmon_cache_entries 1"), std::string::npos);
  EXPECT_NE(text.find("netmon_tenant_count 1"), std::string::npos);
  EXPECT_NE(text.find("netmon_tenant_swaps_total 1"), std::string::npos);
}

TEST(TenantService, WorksBehindTheWireTransportUnchanged) {
  TenantRegistry registry;
  registry.publish("alpha", line_model());
  TenantService service(registry);
  serve::LoopbackTransport wire(service, /*via_wire=*/true);

  serve::Request request = solve_request(21, "alpha");
  const serve::Response first = wire.call(request);
  ASSERT_EQ(first.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(first.tenant, "alpha");

  request.id = 22;
  const serve::Response second = wire.call(request);
  EXPECT_EQ(second.cache, serve::CacheOutcome::kHit);
  expect_identical_solutions(first, second);
}

}  // namespace
}  // namespace netmon::tenant
