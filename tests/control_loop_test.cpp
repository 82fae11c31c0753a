#include "control/loop.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <vector>

#include "core/scenario.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "tenant/service.hpp"
#include "traffic/variation.hpp"
#include "util/rng.hpp"

namespace netmon::control {
namespace {

using namespace std::chrono_literals;

/// Builds the bin observation a telemetry pipeline would deliver for the
/// given traffic matrix: routed link loads plus exact per-OD estimates.
BinObservation observe(const core::GeantScenario& s,
                       const traffic::TrafficMatrix& tm,
                       routing::LinkSet failed = {}) {
  BinObservation bin;
  bin.loads = traffic::link_loads(s.net.graph, tm, failed);
  bin.od_rates.reserve(s.task.ods.size());
  for (const routing::OdPair& od : s.task.ods)
    bin.od_rates.push_back(traffic::demand_for(tm, od));
  bin.failed = std::move(failed);
  return bin;
}

TEST(ControlLoop, FirstBinConfigures) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  const StepResult r = loop.step(observe(s, s.demands));
  EXPECT_EQ(r.bin, 1);
  EXPECT_EQ(r.reason, ResolveReason::kFirstBin);
  EXPECT_TRUE(r.resolved);
  EXPECT_TRUE(r.reconfigured);
  EXPECT_TRUE(r.forced);
  EXPECT_GT(r.utility, 0.0);
  EXPECT_GT(r.active_monitors, 0u);
  EXPECT_NEAR(r.budget_used, 100000.0, 1.0);
  EXPECT_TRUE(loop.have_rates());
}

TEST(ControlLoop, SteadyStateTracksWithoutChurn) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  const BinObservation bin_obs = observe(s, s.demands);
  loop.step(bin_obs);
  for (int bin = 2; bin <= 10; ++bin) {
    const StepResult r = loop.step(bin_obs);
    EXPECT_EQ(r.reason, ResolveReason::kNone) << "bin " << bin;
    EXPECT_FALSE(r.reconfigured);
    EXPECT_LT(r.tracked.innovation_rms, 1.0);
    EXPECT_GT(r.utility, 0.0);  // the incumbent keeps being priced
  }
  EXPECT_EQ(loop.reconfigurations(), 1);
  EXPECT_EQ(loop.resolves(), 1);
}

TEST(ControlLoop, StalenessResolveIsHeldBackByHysteresis) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  const BinObservation bin_obs = observe(s, s.demands);
  StepResult r;
  // Default policy re-solves after 12 quiet bins; nothing changed, so
  // the fresh optimum ties the incumbent and the actuator holds it.
  for (int bin = 1; bin <= 13; ++bin) r = loop.step(bin_obs);
  EXPECT_EQ(r.reason, ResolveReason::kElapsed);
  EXPECT_TRUE(r.resolved);
  EXPECT_FALSE(r.reconfigured);
  EXPECT_LT(std::abs(r.utility_gain), 1e-3);
  EXPECT_EQ(loop.holds(), 1);
  EXPECT_EQ(loop.reconfigurations(), 1);
}

TEST(ControlLoop, TrafficSurgeTriggersInnovationResolve) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlConfig config;
  // Re-accept immediately so the surge snaps the tracked task (and the
  // re-solve sees it) on the surge bin itself.
  config.tracker.reaccept_after = 1;
  ControlLoop loop(s.net.graph, s.task, config);
  loop.step(observe(s, s.demands));

  // 10x surge in the *estimates* of three task ODs while the link loads
  // are still the old ones (the flow estimates lead the SNMP picture by
  // a poll): the budget contract still holds, so the innovation norm is
  // what must trigger the re-solve.
  BinObservation surged = observe(s, s.demands);
  for (int k = 0; k < 3; ++k)
    surged.od_rates[static_cast<std::size_t>(k)] *= 10.0;
  const StepResult r = loop.step(surged);
  EXPECT_EQ(r.reason, ResolveReason::kInnovation);
  EXPECT_GE(r.tracked.innovation_rms, 2.0);
  EXPECT_EQ(r.tracked.reaccepted, 3);
  EXPECT_TRUE(r.resolved);
  EXPECT_TRUE(r.reconfigured);  // the shifted task is worth re-planning
}

TEST(ControlLoop, TopologyEventForcesReconfiguration) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  loop.step(observe(s, s.demands));

  const auto uk_nl = *s.net.graph.find_link("UK", "NL");
  const StepResult failed =
      loop.step(observe(s, s.demands, routing::LinkSet{uk_nl}));
  EXPECT_EQ(failed.reason, ResolveReason::kTopology);
  EXPECT_TRUE(failed.forced);
  EXPECT_TRUE(failed.reconfigured);
  EXPECT_DOUBLE_EQ(loop.rates()[uk_nl], 0.0);

  // Recovery is a topology event too.
  const StepResult recovered = loop.step(observe(s, s.demands));
  EXPECT_EQ(recovered.reason, ResolveReason::kTopology);
  EXPECT_TRUE(recovered.reconfigured);
}

TEST(ControlLoop, BudgetViolationForcesReconfiguration) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  loop.step(observe(s, s.demands));

  // The background doubles: the incumbent rates now sample roughly twice
  // the agreed budget. The resource contract is broken even though the
  // over-spend buys utility, so the loop must reconfigure.
  const core::GeantScenario shifted =
      core::make_geant_scenario({.background_pkt_per_sec = 2.8e6});
  const StepResult r = loop.step(observe(shifted, shifted.demands));
  EXPECT_EQ(r.reason, ResolveReason::kBudget);
  EXPECT_TRUE(r.forced);
  EXPECT_TRUE(r.reconfigured);
  EXPECT_NEAR(r.budget_used / 1e5, 1.0, 1e-6);
}

TEST(ControlLoop, SmallLoadNoiseIsIgnored) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  const BinObservation clean = observe(s, s.demands);
  loop.step(clean);
  BinObservation noisy = clean;
  for (double& load : noisy.loads) load *= 1.001;  // 0.1% measurement noise
  const StepResult r = loop.step(noisy);
  EXPECT_FALSE(r.reconfigured);
  EXPECT_EQ(loop.reconfigurations(), 1);
}

TEST(ControlLoop, ExpiredSolveFallsBackToIncumbent) {
  const core::GeantScenario s = core::make_geant_scenario();
  obs::ManualClock clock;
  std::atomic<bool> cancel{false};
  ControlConfig config;
  config.solver.should_stop = [&cancel](int) {
    return cancel.load(std::memory_order_relaxed);
  };
  ControlDeps deps;
  deps.clock = &clock;
  ControlLoop loop(s.net.graph, s.task, config, deps);
  loop.step(observe(s, s.demands));
  const sampling::RateVector incumbent = loop.rates();

  // The topology-triggered re-solve is cancelled mid-flight: the loop
  // must keep the (certified) incumbent rather than push a half-solved
  // point, even though the trigger was a forced one.
  cancel.store(true, std::memory_order_relaxed);
  const auto uk_nl = *s.net.graph.find_link("UK", "NL");
  const StepResult expired =
      loop.step(observe(s, s.demands, routing::LinkSet{uk_nl}));
  EXPECT_EQ(expired.reason, ResolveReason::kTopology);
  EXPECT_TRUE(expired.solve_expired);
  EXPECT_FALSE(expired.resolved);
  EXPECT_FALSE(expired.reconfigured);
  EXPECT_EQ(loop.rates(), incumbent);
  EXPECT_EQ(loop.solve_expirations(), 1);

  // Once solves complete again, the next topology event (the recovery)
  // re-converges the loop.
  cancel.store(false, std::memory_order_relaxed);
  const StepResult recovered = loop.step(observe(s, s.demands));
  EXPECT_EQ(recovered.reason, ResolveReason::kTopology);
  EXPECT_TRUE(recovered.reconfigured);
}

TEST(ControlLoop, NegativeDeadlineExpiresAtFirstPoll) {
  const core::GeantScenario s = core::make_geant_scenario();
  obs::ManualClock clock;  // frozen: now() never advances inside a solve
  ControlConfig config;
  config.solve_deadline = -1ms;
  ControlDeps deps;
  deps.clock = &clock;
  ControlLoop loop(s.net.graph, s.task, config, deps);
  for (int bin = 1; bin <= 2; ++bin) {
    const StepResult r = loop.step(observe(s, s.demands));
    EXPECT_EQ(r.reason, ResolveReason::kFirstBin) << "bin " << bin;
    EXPECT_TRUE(r.solve_expired);
    EXPECT_FALSE(loop.have_rates());
  }
  EXPECT_EQ(loop.solve_expirations(), 2);
}

TEST(ControlLoop, RejectedBinIsSkippedAndIncumbentKept) {
  const core::GeantScenario s = core::make_geant_scenario();
  ControlLoop loop(s.net.graph, s.task);
  loop.step(observe(s, s.demands));
  const sampling::RateVector incumbent = loop.rates();

  // Dead loads on the candidate links: problem assembly rejects the bin.
  BinObservation bad = observe(s, s.demands);
  bad.loads.assign(bad.loads.size(), 0.0);
  const StepResult r = loop.step(bad);
  EXPECT_TRUE(r.skipped);
  EXPECT_FALSE(r.reconfigured);
  EXPECT_EQ(loop.rates(), incumbent);
  EXPECT_EQ(loop.bins(), 2);
}

TEST(ControlLoop, EmitsFlightEventsAndMetrics) {
  const core::GeantScenario s = core::make_geant_scenario();
  obs::ManualClock clock;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(256);
  ControlDeps deps;
  deps.clock = &clock;
  deps.metrics = &metrics;
  deps.recorder = &recorder;
  ControlLoop loop(s.net.graph, s.task, {}, deps);
  const BinObservation bin_obs = observe(s, s.demands);
  for (int bin = 1; bin <= 3; ++bin) {
    loop.step(bin_obs);
    clock.advance(300s);
  }

  int tracks = 0, resolves = 0, reconfigs = 0;
  std::int64_t last_t = 0;
  for (const obs::FlightRecord& rec : recorder.dump()) {
    if (rec.event == obs::ServeEvent::kControlTrack) ++tracks;
    if (rec.event == obs::ServeEvent::kControlResolve) ++resolves;
    if (rec.event == obs::ServeEvent::kControlReconfigure) ++reconfigs;
    EXPECT_GE(rec.request_id, 1u);
    EXPECT_LE(rec.request_id, 3u);
    EXPECT_GE(rec.t_ns, last_t);  // ManualClock only moves forward
    last_t = rec.t_ns;
  }
  EXPECT_EQ(tracks, 3);
  EXPECT_EQ(resolves, 1);
  EXPECT_EQ(reconfigs, 1);

  const obs::RegistrySnapshot snap = metrics.snapshot();
  ASSERT_NE(snap.find("netmon_control_bins_total"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("netmon_control_bins_total")->value, 3.0);
  EXPECT_DOUBLE_EQ(
      snap.find("netmon_control_reconfigurations_total")->value, 1.0);
  ASSERT_NE(snap.find("netmon_control_step_ms"), nullptr);
  EXPECT_EQ(snap.find("netmon_control_step_ms")->count, 3u);
  EXPECT_DOUBLE_EQ(snap.find("netmon_control_active_monitors")->value,
                   static_cast<double>(loop.step(bin_obs).active_monitors));
}

TEST(ControlLoop, TomogravityFallbackEstimatesPopOds) {
  // The JANET endpoints carry no gravity mass, so the fallback is tested
  // on a PoP-to-PoP task whose demands the inversion can see.
  const core::GeantScenario s = core::make_geant_scenario();
  core::MeasurementTask pop_task;
  for (const traffic::Demand& d : s.demands) {
    if (d.od.src == s.net.janet || d.od.dst == s.net.janet) continue;
    pop_task.ods.push_back(d.od);
    pop_task.expected_packets.push_back(d.pkt_per_sec * 300.0);
    if (pop_task.ods.size() == 8) break;
  }
  ASSERT_EQ(pop_task.ods.size(), 8u);

  const std::vector<double> rates = od_rates_from_tomogravity(
      s.net.graph, s.loads, {}, pop_task);
  ASSERT_EQ(rates.size(), 8u);
  for (std::size_t k = 0; k < rates.size(); ++k) {
    EXPECT_GT(rates[k], 0.0) << "od " << k;
    // Tomogravity is approximate; order-of-magnitude agreement is the
    // contract here (estimate/ has the accuracy tests).
    const double truth = pop_task.expected_packets[k] / 300.0;
    EXPECT_GT(rates[k], 0.1 * truth);
    EXPECT_LT(rates[k], 10.0 * truth);
  }

  // A zero-mass endpoint's OD comes back as "no estimate".
  core::MeasurementTask janet_od;
  janet_od.ods.push_back(s.task.ods.front());
  janet_od.expected_packets.push_back(3000.0);
  const std::vector<double> missing = od_rates_from_tomogravity(
      s.net.graph, s.loads, {}, janet_od);
  EXPECT_LT(missing.front(), 0.0);

  // And the loop consumes the fallback transparently: feeding a bin with
  // no od_rates still tracks (predict-only on missing ODs).
  ControlLoop loop(s.net.graph, pop_task);
  BinObservation no_estimates;
  no_estimates.loads = s.loads;
  const StepResult r = loop.step(no_estimates);
  EXPECT_GT(r.tracked.measured, 0);
  EXPECT_TRUE(r.reconfigured);
}

TEST(ControlLoop, ServiceHostsControlLoop) {
  const core::GeantScenario s = core::make_geant_scenario();
  obs::ManualClock clock;
  tenant::TenantRegistry registry(&clock);
  registry.publish("geant", {s.net.graph, s.task, s.loads, {}});
  tenant::TenantServiceOptions options;
  options.clock = &clock;
  options.start_paused = true;  // no query traffic in this test
  tenant::TenantService service(registry, options);

  ControlLoop loop(s.net.graph, s.task, {}, service.control_deps());
  const BinObservation bin_obs = observe(s, s.demands);
  for (int bin = 1; bin <= 3; ++bin) {
    loop.step(bin_obs);
    clock.advance(300s);
  }
  EXPECT_EQ(loop.bins(), 3);
  EXPECT_EQ(loop.reconfigurations(), 1);

  // The loop reports into the service's registry and flight recorder.
  const std::string prom = service.prometheus();
  EXPECT_NE(prom.find("netmon_control_bins_total"), std::string::npos);
  bool saw_reconfig = false;
  for (const obs::FlightRecord& rec : service.flight_recorder().dump())
    if (rec.event == obs::ServeEvent::kControlReconfigure)
      saw_reconfig = true;
  EXPECT_TRUE(saw_reconfig);
}

// The acceptance scenario: a replayed synthetic day of GEANT traffic —
// diurnal background, a mid-run link failure with recovery, and an
// afternoon traffic surge — tracked by the loop against the every-bin
// oracle re-solve. The loop must stay within 5% of the oracle's
// time-averaged utility while issuing at most a quarter of the oracle's
// reconfigurations (the oracle pushes every bin by definition).
TEST(ControlLoop, ReplayedDayStaysNearOracleWithBoundedChurn) {
  const core::GeantScenario s = core::make_geant_scenario();
  const traffic::DiurnalPattern pattern(0.2, 14.0 * 3600.0);
  std::vector<traffic::AnomalySpike> spikes;
  for (int k = 0; k < 3; ++k) {
    traffic::AnomalySpike spike;
    spike.od = s.task.ods[static_cast<std::size_t>(k)];
    spike.start_sec = 18.0 * 3600.0;
    spike.end_sec = 19.0 * 3600.0;
    spike.factor = 8.0;
    spikes.push_back(spike);
  }
  const auto uk_nl = *s.net.graph.find_link("UK", "NL");
  constexpr int kBins = 288;            // one day of 5-minute bins
  constexpr int kFailBin = 97;          // 08:00
  constexpr int kRecoverBin = 193;      // 16:00

  obs::ManualClock clock;
  ControlConfig config;
  config.track_oracle = true;
  ControlDeps deps;
  deps.clock = &clock;
  ControlLoop loop(s.net.graph, s.task, config, deps);

  Rng rng(42);  // seeded: the replay is fully deterministic
  double loop_utility = 0.0;
  double oracle_utility = 0.0;
  for (int bin = 1; bin <= kBins; ++bin) {
    const double t = (bin - 1) * 300.0;
    const traffic::TrafficMatrix tm =
        traffic::matrix_at(s.demands, pattern, spikes, t);
    routing::LinkSet failed;
    if (bin >= kFailBin && bin < kRecoverBin) failed.insert(uk_nl);
    BinObservation bin_obs = observe(s, tm, failed);
    // NetFlow-style estimation noise on the OD rates.
    for (double& rate : bin_obs.od_rates) rate *= rng.uniform(0.95, 1.05);

    const StepResult r = loop.step(bin_obs);
    ASSERT_FALSE(r.skipped) << "bin " << bin;
    EXPECT_GT(r.utility, 0.0) << "bin " << bin;
    loop_utility += r.utility;
    oracle_utility += r.oracle_utility;

    if (bin == kFailBin || bin == kRecoverBin) {
      // The loop reacts to the topology event on the bin it happens.
      EXPECT_EQ(r.reason, ResolveReason::kTopology) << "bin " << bin;
      EXPECT_TRUE(r.reconfigured) << "bin " << bin;
    }
    clock.advance(300s);
  }

  // Time-averaged utility within 5% of the every-bin oracle.
  EXPECT_GT(oracle_utility, 0.0);
  EXPECT_GE(loop_utility, 0.95 * oracle_utility);
  EXPECT_LE(loop_utility, 1.0001 * oracle_utility)
      << "the tracked loop cannot beat the oracle";
  // Bounded churn: at most 25% of the oracle's one-push-per-bin rate.
  EXPECT_LE(loop.reconfigurations(), kBins / 4);
  EXPECT_GE(loop.reconfigurations(), 3);  // it did react to the day
  EXPECT_EQ(loop.bins(), kBins);
}

}  // namespace
}  // namespace netmon::control
