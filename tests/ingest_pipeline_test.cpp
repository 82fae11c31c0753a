#include "ingest/pipeline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "control/loop.hpp"
#include "control/tracker.hpp"
#include "helpers.hpp"
#include "ingest/synthetic.hpp"
#include "ingest/trace.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "traffic/link_load.hpp"
#include "util/error.hpp"

namespace netmon::ingest {
namespace {

// The ingest estimator's missing-value sentinel must drop straight into
// control::BinObservation::od_rates.
static_assert(kNoEstimate == control::kMissing);

struct LineScenario {
  topo::Graph graph = test::line_graph();
  traffic::TrafficMatrix tm{{{0, 3}, 120.0}, {{0, 1}, 240.0}};
  routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 3}, {0, 1}});
  netflow::EgressMap egress = netflow::EgressMap::for_pop_blocks(graph);
  sampling::RateVector rates;
  SyntheticOptions synth;
  topo::LinkId ab, bc;

  LineScenario() {
    ab = *graph.find_link(0, 1);
    bc = *graph.find_link(1, 2);
    rates.assign(graph.link_count(), 0.0);
    rates[ab] = 0.20;
    rates[bc] = 0.10;
    synth.flowgen.interval_sec = 60.0;
  }
};

/// The skewed instance: A->B carries over half of all packets, so
/// largest-first gives it a task of its own; six monitored links spread
/// the rest.
LineScenario skewed_scenario() {
  LineScenario skewed;
  skewed.tm = {{{0, 1}, 600.0}, {{1, 2}, 60.0}, {{2, 3}, 60.0},
               {{0, 3}, 40.0}, {{3, 0}, 40.0}};
  skewed.matrix = routing::RoutingMatrix::single_path(
      skewed.graph, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 0}});
  skewed.rates.assign(skewed.graph.link_count(), 0.1);
  return skewed;
}

struct RunConfig {
  unsigned producers = 1;
  unsigned pool_threads = 0;  // 0 = no pool (tasks run on the caller)
};

struct RunOutcome {
  IngestStats stats;
  std::vector<double> estimates;
  std::uint64_t unattributed = 0;
};

RunOutcome run_sources(const LineScenario& s,
                       std::vector<std::unique_ptr<PacketSource>> sources,
                       RunConfig config,
                       obs::MetricsRegistry* metrics = nullptr) {
  IngestOptions options;
  options.producers = config.producers;
  options.collector.bin_sec = s.synth.flowgen.interval_sec;
  IngestDeps deps;
  deps.metrics = metrics;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (config.pool_threads != 0) {
    pool = std::make_unique<runtime::ThreadPool>(config.pool_threads);
    deps.pool = pool.get();
  }
  IngestPipeline pipeline(s.rates, s.egress, options, deps);
  pipeline.add_sources(std::move(sources));
  RunOutcome outcome;
  outcome.stats = pipeline.run();
  outcome.estimates =
      od_rate_estimates(pipeline.collector(), s.matrix, s.rates, 0,
                        s.synth.flowgen.interval_sec);
  outcome.unattributed = pipeline.collector().unattributed_records();
  return outcome;
}

RunOutcome run_pipeline(const LineScenario& s, const SyntheticTraffic& traffic,
                        RunConfig config,
                        obs::MetricsRegistry* metrics = nullptr) {
  return run_sources(s, traffic.sources(s.rates), config, metrics);
}

/// 64-bit FNV-1a over the bit patterns of the estimates.
std::uint64_t estimate_hash(const std::vector<double>& estimates) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : estimates) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b)
      h = (h ^ ((bits >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

void expect_same_outputs(const RunOutcome& r, const RunOutcome& base,
                         const RunConfig& config) {
  EXPECT_EQ(r.stats.offered_packets, base.stats.offered_packets);
  EXPECT_EQ(r.stats.sampled_packets, base.stats.sampled_packets);
  EXPECT_EQ(r.stats.exported_records, base.stats.exported_records);
  ASSERT_EQ(r.estimates.size(), base.estimates.size());
  for (std::size_t k = 0; k < r.estimates.size(); ++k)
    EXPECT_EQ(r.estimates[k], base.estimates[k])
        << "OD " << k << " at tasks=" << config.producers
        << " pool=" << config.pool_threads;
}

TEST(IngestPipeline, BlockingPolicyLosesNothing) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r =
      run_pipeline(s, traffic, {.producers = 2, .pool_threads = 2});
  EXPECT_EQ(r.stats.sources, 2u);
  EXPECT_EQ(r.stats.offered_packets,
            traffic.packets_on(s.ab) + traffic.packets_on(s.bc));
  EXPECT_EQ(r.stats.consumed_packets, r.stats.offered_packets);
  EXPECT_EQ(r.stats.dropped_packets, 0u);
  EXPECT_GT(r.stats.sampled_packets, 0u);
  EXPECT_GT(r.stats.exported_records, 0u);
  EXPECT_EQ(r.unattributed, 0u);
}

TEST(IngestPipeline, SamplingRateHonored) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r = run_pipeline(s, traffic, {});
  const double expected =
      0.20 * static_cast<double>(traffic.packets_on(s.ab)) +
      0.10 * static_cast<double>(traffic.packets_on(s.bc));
  const double sampled = static_cast<double>(r.stats.sampled_packets);
  EXPECT_NEAR(sampled, expected, 4.0 * std::sqrt(expected) + 1.0);
}

TEST(IngestPipeline, EstimatesRecoverOdRates) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome r = run_pipeline(s, traffic, {.pool_threads = 2});
  const double interval = s.synth.flowgen.interval_sec;
  for (std::size_t k = 0; k < 2; ++k) {
    const double actual_rate =
        static_cast<double>(traffic::total_packets(traffic.flows()[k])) /
        interval;
    const double rho = sampling::effective_rate_approx(s.matrix, k, s.rates);
    ASSERT_GT(rho, 0.0);
    // 4-sigma band of the binomial estimator, in pkt/s.
    const double sigma =
        std::sqrt(actual_rate * interval / rho) / interval;
    EXPECT_NEAR(r.estimates[k], actual_rate, 4.0 * sigma + 1.0)
        << "OD " << k;
  }
}

// The acceptance criterion: for a fixed seed the ingest-derived
// estimates are bit-identical at every task count and pool size, with
// and without a pool, on an even and on a skewed instance.
TEST(IngestPipeline, DeterministicAcrossThreadCounts) {
  const LineScenario line;
  const LineScenario skewed = skewed_scenario();
  for (const LineScenario* s : {&line, &skewed}) {
    SyntheticTraffic traffic(s->matrix, s->tm, s->synth);
    const auto sources =
        static_cast<unsigned>(traffic.sources(s->rates).size());
    const RunOutcome base = run_pipeline(*s, traffic, {});
    for (const unsigned tasks : {1u, 2u, 3u, 4u}) {
      for (const unsigned pool : {0u, 1u, 2u, 3u}) {
        const RunConfig config{.producers = tasks, .pool_threads = pool};
        const RunOutcome r = run_pipeline(*s, traffic, config);
        EXPECT_EQ(r.stats.tasks, std::min(tasks, sources));
        expect_same_outputs(r, base, config);
      }
    }
  }
}

// The outputs pinned to the values the ring pipeline (producer threads
// feeding consumer shards) produced, so a change in sampling order fails
// even while every task count still agrees with every other.
TEST(IngestPipeline, OutputsMatchThePinnedReference) {
  struct Pin {
    std::uint64_t estimate_hash;
    std::uint64_t sampled;
    std::uint64_t exported;
  };
  const LineScenario line;
  const LineScenario skewed = skewed_scenario();
  const std::pair<const LineScenario*, Pin> cases[] = {
      {&line, {0x6e56f9eb21362775ULL, 5389, 2215}},
      {&skewed, {0x11698afb8ddb1044ULL, 5699, 2957}},
  };
  for (const auto& [s, pin] : cases) {
    SyntheticTraffic traffic(s->matrix, s->tm, s->synth);
    const RunOutcome r =
        run_pipeline(*s, traffic, {.producers = 2, .pool_threads = 2});
    EXPECT_EQ(estimate_hash(r.estimates), pin.estimate_hash);
    EXPECT_EQ(r.stats.sampled_packets, pin.sampled);
    EXPECT_EQ(r.stats.exported_records, pin.exported);
  }
}

/// Counts, into `idle`, the calls on which a source had nothing due yet.
class IdleCounting final : public PacketSource {
 public:
  IdleCounting(std::unique_ptr<PacketSource> inner, std::uint64_t& idle)
      : inner_(std::move(inner)), idle_(idle) {}
  topo::LinkId link() const noexcept override { return inner_->link(); }
  std::size_t next_batch(PacketRecord* out, std::size_t max) override {
    const std::size_t n = inner_->next_batch(out, max);
    if (n == 0 && !inner_->exhausted()) ++idle_;
    return n;
  }
  bool exhausted() const noexcept override { return inner_->exhausted(); }
  std::uint64_t expected_packets() const noexcept override {
    return inner_->expected_packets();
  }

 private:
  std::unique_ptr<PacketSource> inner_;
  std::uint64_t& idle_;
};

// A paced trace shares a task with synthetic sources: the task drains
// them while the trace has nothing due, revisits the trace as the clock
// advances, and ends with every frame delivered and the estimates of an
// unpaced replay of the same trace.
TEST(IngestPipeline, PacedTraceBesideSyntheticSources) {
  using namespace std::chrono_literals;
  const LineScenario s = skewed_scenario();
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const topo::LinkId traced = *s.graph.find_link(1, 2);
  std::vector<PacketRecord> packets;
  {
    const auto source = traffic.source(traced);
    PacketRecord batch[256];
    for (std::size_t n; (n = source->next_batch(batch, 256)) != 0;)
      packets.insert(packets.end(), batch, batch + n);
  }
  const std::vector<std::uint8_t> trace = encode_trace(packets);
  ASSERT_GT(packets.size(), 0u);

  // Sources in link order, the traced link replayed from the trace.
  auto sources_with = [&](std::unique_ptr<PacketSource> replay) {
    std::vector<std::unique_ptr<PacketSource>> sources;
    for (auto& source : traffic.sources(s.rates))
      sources.push_back(source->link() == traced ? std::move(replay)
                                                 : std::move(source));
    return sources;
  };
  const RunOutcome unpaced = run_sources(
      s, sources_with(std::make_unique<TraceReader>(
             trace, TraceReadOptions{.link = traced})),
      {.producers = 1});

  for (const unsigned tasks : {1u, 3u}) {
    const RunConfig config{.producers = tasks, .pool_threads = 2};
    obs::ManualClock clock;
    std::uint64_t idle = 0;
    auto paced = std::make_unique<IdleCounting>(
        std::make_unique<TraceReader>(
            trace,
            TraceReadOptions{.link = traced, .speed = 1.0, .clock = &clock}),
        idle);
    RunOutcome r;
    {
      // Advances the pacing clock until the run is over (jthread stops
      // and joins on scope exit, also when the run throws).
      const std::jthread ticker([&clock](const std::stop_token& stop) {
        while (!stop.stop_requested()) {
          clock.advance(1s);
          std::this_thread::sleep_for(100us);
        }
      });
      r = run_sources(s, sources_with(std::move(paced)), config);
    }

    EXPECT_GT(idle, 0u) << "the paced trace was never revisited";
    EXPECT_EQ(r.stats.offered_packets, unpaced.stats.offered_packets);
    EXPECT_EQ(r.stats.consumed_packets, r.stats.offered_packets);
    expect_same_outputs(r, unpaced, config);
  }
}

TEST(IngestPipeline, MetricsSurfaceTheRun) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  obs::MetricsRegistry metrics;
  const RunOutcome r =
      run_pipeline(s, traffic, {.pool_threads = 2}, &metrics);
  const obs::RegistrySnapshot snap = metrics.snapshot();
  const obs::MetricSnapshot* packets =
      snap.find("netmon_ingest_packets_total");
  ASSERT_NE(packets, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(packets->value),
            r.stats.offered_packets);
  const obs::MetricSnapshot* sampled =
      snap.find("netmon_ingest_sampled_total");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(sampled->value),
            r.stats.sampled_packets);
  const obs::MetricSnapshot* batches =
      snap.find("netmon_ingest_batches_total");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->value, 0.0);
  EXPECT_NE(snap.find("netmon_ingest_produce_batch_ns"), nullptr);
  EXPECT_NE(snap.find("netmon_ingest_consume_batch_ns"), nullptr);
  EXPECT_NE(snap.find("netmon_ingest_pkts_per_sec"), nullptr);
}

TEST(IngestPipeline, RunIsOneShot) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  IngestOptions options;
  options.collector.bin_sec = s.synth.flowgen.interval_sec;
  IngestPipeline pipeline(s.rates, s.egress, options);
  pipeline.add_sources(traffic.sources(s.rates));
  pipeline.run();
  EXPECT_THROW(pipeline.run(), Error);
}

TEST(IngestPipeline, RejectsSourceOnUnmonitoredLink) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  sampling::RateVector no_rates(s.graph.link_count(), 0.0);
  IngestPipeline pipeline(no_rates, s.egress);
  EXPECT_THROW(pipeline.add_source(traffic.source(s.ab)), Error);
}

// Closes the loop of the issue: ingest-derived estimates drive
// control::ControlLoop exactly like simulator-derived ones.
TEST(IngestPipeline, EstimatesDriveTheControlLoop) {
  LineScenario s;
  core::MeasurementTask task;
  task.ods = {{0, 3}, {0, 1}};
  task.interval_sec = 300.0;
  for (const auto& demand : s.tm)
    task.expected_packets.push_back(demand.pkt_per_sec * task.interval_sec);
  control::ControlLoop loop(s.graph, task);

  // Bin 1: loads only; the loop solves and installs sampling rates.
  control::BinObservation first;
  first.loads = traffic::link_loads(s.graph, s.tm);
  const control::StepResult r1 = loop.step(first);
  EXPECT_TRUE(r1.reconfigured);
  ASSERT_TRUE(loop.have_rates());

  // Bin 2: replay the interval through ingest under the installed
  // rates and feed the resulting estimates back.
  s.rates = loop.rates();
  SyntheticTraffic traffic(s.matrix, s.tm, s.synth);
  const RunOutcome a =
      run_pipeline(s, traffic, {.producers = 2, .pool_threads = 2});
  const RunOutcome b = run_pipeline(s, traffic, {.producers = 1});
  ASSERT_EQ(a.estimates.size(), task.ods.size());
  EXPECT_EQ(a.estimates, b.estimates);  // deterministic hand-off

  control::BinObservation second;
  second.loads = first.loads;
  second.od_rates = a.estimates;
  const control::StepResult r2 = loop.step(second);
  EXPECT_EQ(r2.bin, 2);
  EXPECT_FALSE(r2.skipped);
  EXPECT_GT(r2.utility, 0.0);

  // The estimates the loop consumed track the true rates.
  for (std::size_t k = 0; k < task.ods.size(); ++k) {
    if (a.estimates[k] == kNoEstimate) continue;
    const double actual = s.tm[k].pkt_per_sec;
    EXPECT_NEAR(a.estimates[k] / actual, 1.0, 0.5) << "OD " << k;
  }
}

}  // namespace
}  // namespace netmon::ingest
