// TenantRegistry contract: RCU snapshot swaps never invalidate a pinned
// reader, epochs are per-tenant and monotone, and quotas admit/reject
// deterministically on the injected clock. The concurrent sections are
// the TSan targets (scripts/ci.sh runs this test under -fsanitize=thread).
#include "tenant/tenant.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "obs/clock.hpp"
#include "util/error.hpp"

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

TEST(TenantRegistry, PublishAcquireRoundTrip) {
  TenantRegistry registry;
  EXPECT_EQ(registry.acquire("geant"), nullptr);

  EXPECT_EQ(registry.publish("geant", line_model()), 1u);
  const auto snapshot = registry.acquire("geant");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->name(), "geant");
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(snapshot->model().problem.theta, 50000.0);
  EXPECT_EQ(snapshot->routing().od_count(), 2u);

  // The view points into the snapshot's own model.
  const serve::ModelView view = snapshot->view();
  EXPECT_EQ(view.graph, &snapshot->model().graph);
  EXPECT_EQ(view.defaults, &snapshot->model().problem);
}

TEST(TenantRegistry, EpochsArePerTenantAndMonotone) {
  TenantRegistry registry;
  EXPECT_EQ(registry.publish("a", line_model()), 1u);
  EXPECT_EQ(registry.publish("a", line_model(60000.0)), 2u);
  EXPECT_EQ(registry.publish("b", line_model()), 1u);
  EXPECT_EQ(registry.acquire("a")->epoch(), 2u);
  EXPECT_EQ(registry.acquire("a")->model().problem.theta, 60000.0);
  EXPECT_EQ(registry.acquire("b")->epoch(), 1u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(TenantRegistry, EmptyNameResolvesToTheDefaultTenant) {
  TenantRegistry registry;
  EXPECT_EQ(registry.acquire(""), nullptr);
  registry.publish("first", line_model());
  registry.publish("second", line_model());
  // First publish becomes the default.
  EXPECT_EQ(registry.acquire("")->name(), "first");
  registry.set_default("second");
  EXPECT_EQ(registry.acquire("")->name(), "second");
  EXPECT_THROW(registry.set_default("nope"), Error);
}

TEST(TenantRegistry, APinnedSnapshotSurvivesSwapAndRemove) {
  TenantRegistry registry;
  registry.publish("t", line_model(40000.0));
  const auto pinned = registry.acquire("t");

  registry.publish("t", line_model(70000.0));
  EXPECT_TRUE(registry.remove("t"));
  EXPECT_EQ(registry.acquire("t"), nullptr);

  // The pin still reads the model it resolved: RCU, not invalidation.
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->model().problem.theta, 40000.0);
  EXPECT_EQ(pinned->view().defaults->theta, 40000.0);
}

TEST(TenantRegistry, InconsistentModelsNeverPublish) {
  TenantRegistry registry;
  TenantModel bad = line_model();
  bad.loads.pop_back();  // loads no longer cover every link
  EXPECT_THROW(registry.publish("bad", std::move(bad)), Error);
  // A failed first publish leaves no trace: no name, no default.
  EXPECT_EQ(registry.acquire("bad"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.tenants().empty());
  EXPECT_EQ(registry.default_tenant(), "");

  // So the next good publish becomes the default.
  EXPECT_EQ(registry.publish("t", line_model()), 1u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.default_tenant(), "t");
  ASSERT_NE(registry.acquire(""), nullptr);
  EXPECT_EQ(registry.acquire("")->name(), "t");

  TenantModel bad2 = line_model();
  bad2.task.ods.clear();
  EXPECT_THROW(registry.publish("t", std::move(bad2)), Error);
  // The previous epoch keeps serving.
  EXPECT_EQ(registry.acquire("t")->epoch(), 1u);
}

TEST(TenantRegistry, ConcurrentFirstPublishesGetConsecutiveEpochs) {
  TenantRegistry registry;
  std::atomic<std::uint64_t> epochs{0};
  std::vector<std::thread> publishers;
  for (int p = 0; p < 2; ++p)
    publishers.emplace_back([&] {
      epochs.fetch_add(registry.publish("t", line_model()));
    });
  for (std::thread& publisher : publishers) publisher.join();
  EXPECT_EQ(epochs.load(), 3u);  // epochs 1 and 2, in either order
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.acquire("t")->epoch(), 2u);
}

// The TSan target: readers continuously acquire and *use* the snapshot
// (touching the model the writer would love to free) while the writer
// swaps epochs. No locks are held across the reads; correctness is
// "every read sees a complete, internally consistent snapshot".
TEST(TenantRegistry, ConcurrentAcquireDuringSwapsIsSafe) {
  TenantRegistry registry;
  registry.publish("t", line_model(10000.0));

  std::atomic<bool> go{true};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (go.load(std::memory_order_acquire)) {
        const auto snapshot = registry.acquire("t");
        ASSERT_NE(snapshot, nullptr);
        // Use the pinned model: epoch must match its own theta schedule
        // (epoch e was published with theta = 10000 * e).
        const double theta = snapshot->model().problem.theta;
        EXPECT_EQ(theta, 10000.0 * static_cast<double>(snapshot->epoch()));
        EXPECT_EQ(snapshot->routing().od_count(), 2u);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t epoch = 2; epoch <= 20; ++epoch)
    registry.publish("t",
                     line_model(10000.0 * static_cast<double>(epoch)));

  // The writer can outrun thread startup on a loaded machine; make sure
  // at least one read actually overlapped the final state before
  // stopping.
  while (reads.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  go.store(false, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(registry.acquire("t")->epoch(), 20u);
}

TEST(TenantQuota, UnlimitedByDefault) {
  TenantQuota quota({});
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.inflight(), 1000u);
}

TEST(TenantQuota, MaxInflightBoundsAdmission) {
  QuotaConfig config;
  config.max_inflight = 2;
  TenantQuota quota(config);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kTooManyInflight);
  quota.release();
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
}

TEST(TenantQuota, TokenBucketRefillsOnTheInjectedClock) {
  obs::ManualClock clock;
  QuotaConfig config;
  config.tokens_per_sec = 2.0;
  config.burst = 3.0;
  TenantQuota quota(config, &clock);

  // The bucket starts full: the burst spends, then the bucket is dry.
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kRateLimited);

  // 500 ms at 2 tokens/s = 1 token.
  clock.advance(500ms);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kRateLimited);

  // Refill caps at the burst no matter how long the tenant was quiet.
  clock.advance(1h);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kAdmit);
  EXPECT_EQ(quota.try_admit(), QuotaDecision::kRateLimited);
}

TEST(TenantQuota, RegistryQuotaSurvivesTenantRemoval) {
  TenantRegistry registry;
  registry.publish("t", line_model());
  QuotaConfig config;
  config.max_inflight = 1;
  registry.set_quota("t", config);

  const auto quota = registry.quota("t");
  ASSERT_NE(quota, nullptr);
  EXPECT_EQ(quota->try_admit(), QuotaDecision::kAdmit);
  registry.remove("t");
  // The in-flight request still releases into live state.
  quota->release();
  EXPECT_EQ(quota->inflight(), 0u);
}

}  // namespace
}  // namespace netmon::tenant
