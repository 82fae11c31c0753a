// Continuous operation: one replayed day of GEANT traffic under the
// streaming re-optimization loop (src/control/), running on the
// placement service's clock, metrics, flight recorder and thread pool
// (src/tenant/).
//
// The day's script: a diurnal cycle peaking at 14:00 (20% swing), the
// UK-NL link down from 08:00 to 16:00, and an 8x surge on three JANET OD
// pairs from 18:00 to 19:00. Every 5-minute bin the loop is fed what a
// real telemetry plane would deliver:
//   - link loads from simulated SNMP counter polls (telemetry::), and
//   - per-OD rate estimates inverted from NetFlow records sampled *at
//     the rates the loop itself deployed* (sampling:: X_k / rho_k) — the
//     measurement loop is closed: the placement in force produces the
//     estimates that drive the next placement.
// An injected obs::ManualClock drives every timestamp and deadline, so
// the whole day replays deterministically in seconds of wall time, and
// an every-bin oracle re-solve runs alongside (config.track_oracle) to
// show tracked utility staying within a few percent of always-fresh
// optima at a fraction of the router pushes.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "netmon.hpp"
#include "util/table.hpp"

namespace {

std::string hhmm(int bin) {
  const int minutes = (bin - 1) * 5;
  char out[8];
  std::snprintf(out, sizeof(out), "%02d:%02d", minutes / 60, minutes % 60);
  return out;
}

}  // namespace

int main() {
  using namespace netmon;
  using namespace std::chrono_literals;

  std::printf("== continuous operation: a replayed day under the control"
              " loop ==\n\n");

  const core::GeantScenario base = core::make_geant_scenario();
  const auto& graph = base.net.graph;
  const double interval = base.task.interval_sec;  // 300 s bins

  // The day's script.
  const traffic::DiurnalPattern pattern(0.2, 14.0 * 3600.0);
  std::vector<traffic::AnomalySpike> spikes;
  for (int k = 0; k < 3; ++k) {
    traffic::AnomalySpike spike;
    spike.od = base.task.ods[static_cast<std::size_t>(k)];
    spike.start_sec = 18.0 * 3600.0;
    spike.end_sec = 19.0 * 3600.0;
    spike.factor = 8.0;
    spikes.push_back(spike);
  }
  const topo::LinkId uk_nl = *graph.find_link("UK", "NL");
  constexpr int kBins = 288;             // one day of 5-minute bins
  constexpr int kFailBin = 97;           // 08:00: UK-NL goes down
  constexpr int kRecoverBin = 193;       // 16:00: ...and comes back

  // One clock for the service, the loop, and every flight-recorder event.
  obs::ManualClock clock;
  tenant::TenantRegistry registry(&clock);
  registry.publish("geant", {graph, base.task, base.loads, {}});
  tenant::TenantServiceOptions options;
  options.clock = &clock;
  options.threads = 4;
  options.flight_recorder = 4096;  // hold the full day's events
  tenant::TenantService service(registry, options);

  control::ControlConfig config;
  config.track_oracle = true;  // the regret reference: re-solve every bin
  control::ControlLoop loop(graph, base.task, config, service.control_deps());

  Rng rng(2026);
  TextTable table({"window", "diurnal", "innov rms", "resolves", "pushes",
                   "monitors", "utility", "oracle"});
  double loop_utility = 0.0;
  double oracle_utility = 0.0;
  int window_resolves = 0;
  int window_pushes = 0;

  for (int bin = 1; bin <= kBins; ++bin) {
    const double t = (bin - 1) * interval;
    const traffic::TrafficMatrix tm =
        traffic::matrix_at(base.demands, pattern, spikes, t);
    routing::LinkSet failed;
    if (bin >= kFailBin && bin < kRecoverBin) failed.insert(uk_nl);

    control::BinObservation bin_obs;
    bin_obs.failed = failed;

    // SNMP plane: two minutes of per-second Poisson counter increments,
    // polled every 60 s.
    Rng snmp_rng = rng.split(bin);
    bin_obs.loads =
        telemetry::measured_loads(graph, tm, 120.0, 60.0, snmp_rng, failed);

    // NetFlow plane: sample the bin's true task flows at the rates the
    // loop currently has deployed, then invert the counts back to OD
    // rates (X_k / rho_k). Before the first placement exists there are
    // no flow records at all — the loop falls back to tomogravity on the
    // loads (and JANET ODs the inversion cannot see coast on the prior).
    if (loop.have_rates()) {
      // Packet-count sampling only sees per-OD totals, so each OD's bin
      // is its Poisson packet total in a single flow record (the full
      // heavy-tailed populations are exercised in the accuracy benches).
      Rng flow_rng = rng.split(1000 + bin);
      std::vector<std::vector<traffic::Flow>> flows(base.task.ods.size());
      for (std::size_t k = 0; k < base.task.ods.size(); ++k) {
        std::poisson_distribution<std::uint64_t> packets(
            traffic::demand_for(tm, base.task.ods[k]) * interval);
        traffic::Flow flow;
        flow.packets = packets(flow_rng);
        flow.od_index = static_cast<std::uint32_t>(k);
        flows[k].push_back(flow);
      }
      const auto matrix =
          routing::RoutingMatrix::single_path(graph, base.task.ods, failed);
      const auto rhos =
          sampling::effective_rates_approx(matrix, loop.rates());
      Rng sim_rng = rng.split(2000 + bin);
      const auto counts =
          sampling::simulate_sampling(sim_rng, matrix, flows, loop.rates());
      bin_obs.od_rates.assign(counts.size(), control::kMissing);
      for (std::size_t k = 0; k < counts.size(); ++k)
        if (rhos[k] > 1e-9)
          bin_obs.od_rates[k] =
              static_cast<double>(counts[k].sampled_packets) /
              (rhos[k] * interval);
    }

    const control::StepResult r = loop.step(bin_obs);
    loop_utility += r.utility;
    oracle_utility += r.oracle_utility;
    if (r.resolved) ++window_resolves;
    if (r.reconfigured) ++window_pushes;

    // Narrate the contract events; routine diurnal churn goes in the
    // table.
    if (r.reason == control::ResolveReason::kFirstBin ||
        r.reason == control::ResolveReason::kTopology)
      std::printf("[%s] %s -> %s (%zu monitors, utility %.4g)\n",
                  hhmm(bin).c_str(), control::to_string(r.reason),
                  r.reconfigured ? "reconfigured" : "held",
                  r.active_monitors, r.utility);

    if (bin % 24 == 0) {  // one row per 2 hours
      table.add_row({hhmm(bin - 23) + "-" + hhmm(bin + 1),
                     fmt_fixed(pattern.factor(t), 2),
                     fmt_fixed(r.tracked.innovation_rms, 2),
                     std::to_string(window_resolves),
                     std::to_string(window_pushes),
                     std::to_string(r.active_monitors),
                     fmt_sci(r.utility, 3), fmt_sci(r.oracle_utility, 3)});
      window_resolves = 0;
      window_pushes = 0;
    }

    clock.advance(300s);
  }

  std::printf("\n%s", table.render().c_str());
  const obs::RegistrySnapshot metrics = service.metrics().snapshot();
  const obs::MetricSnapshot* outliers =
      metrics.find("netmon_control_outliers_total");
  std::printf(
      "\nday summary: %d bins, %d re-solves, %d pushes (the oracle pushes"
      " all %d),\n%d hysteresis holds, %d gated outlier estimates\n"
      "tracked utility / every-bin-oracle utility = %.4f (time-averaged)\n",
      loop.bins(), loop.resolves(), loop.reconfigurations(), kBins,
      loop.holds(), outliers != nullptr ? static_cast<int>(outliers->value) : 0,
      loop_utility / oracle_utility);
  std::printf(
      "\nnotes: the 08:00 failure and 16:00 recovery reconfigure on the"
      " bin they happen;\nthe 18:00 surge is first gated as an outlier,"
      " then re-seeds the tracker and\ntriggers an innovation re-solve;"
      " in between, the budget contract tracks the\ndiurnal swing with"
      " far fewer pushes than an every-bin re-solve.\n");

  const char* obs_dir = std::getenv("NETMON_OBS_DIR");
  if (obs_dir != nullptr) {
    const std::string dir(obs_dir);
    std::ofstream(dir + "/control_metrics.prom") << service.prometheus();
    std::ofstream(dir + "/control_flight.jsonl")
        << service.flight_recorder().jsonl();
    std::printf("\nobs artifacts: %s/{control_metrics.prom,"
                "control_flight.jsonl} (%zu flight events)\n",
                obs_dir, service.flight_recorder().dump().size());
  }
  return 0;
}
