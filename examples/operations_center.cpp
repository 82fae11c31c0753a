// Operations center: every control-plane substrate wired into the
// multi-tenant placement query service.
//
// What a deployment of the paper's system actually looks like:
//   - the BGP RIB maps customer prefixes to egress PoPs (Feldmann [4]),
//   - the IS-IS LSDB tells the operator which links are down,
//   - SNMP counters supply measured link loads,
//   - placement queries go through tenant::TenantService, the
//     long-running multi-tenant query service: each network (here the
//     GEANT backbone and the Abilene research network) is a tenant with
//     its own immutable RCU snapshot, admission quota, and slice of the
//     keyed solve cache,
//   - operator consoles reach the service over a REAL TCP socket (the
//     epoll transport) as well as the in-process loopback, and both
//     answer bit-identically,
//   - accepted placements are rendered as router sampling stanzas.
// The run also demonstrates the multi-tenant contract: a repeated query
// is an exact cache hit replayed without invoking the solver, a
// near-miss warm-starts from the nearest cached neighbour, a tenant
// publish swaps the model under live traffic (and implicitly
// invalidates the tenant's cached answers — epochs key the cache),
// quota-exhausted tenants get typed kRejectedQuota answers, and
// backpressure stays typed — never a hang, never a silent drop.
//
// Environment knobs:
//   NETMON_OBS_DIR       — directory for trace/metrics/flight artifacts
//   NETMON_TCP_PORT      — TCP listen port (default 0 = ephemeral)
//   NETMON_CACHE_ENTRIES — solve cache capacity (default 256; 0 = off)
//   NETMON_QUOTA_RPS     — Abilene's sustained requests/sec (default 2)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "netmon.hpp"
#include "util/table.hpp"

namespace {

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

bool bit_identical(const netmon::core::PlacementSolution& a,
                   const netmon::core::PlacementSolution& b) {
  return a.rates == b.rates && a.total_utility == b.total_utility &&
         a.lambda == b.lambda && a.iterations == b.iterations;
}

}  // namespace

int main() {
  using namespace netmon;

  // With NETMON_OBS_DIR set, the run leaves its observability artifacts
  // behind: the per-iteration solver trace, the Prometheus metrics
  // snapshot (serve + solver + cache + tenant families, one registry),
  // and the flight-recorder event log.
  const char* obs_dir = std::getenv("NETMON_OBS_DIR");

  std::printf("== operations center: BGP + IS-IS + SNMP + multi-tenant"
              " query service ==\n\n");

  const core::GeantScenario scenario = core::make_geant_scenario();
  const auto& graph = scenario.net.graph;

  // --- Control plane 1: BGP-derived egress mapping. ---
  bgp::Rib rib;
  std::uint32_t peer = 1;
  for (const topo::Node& node : graph.nodes()) {
    // Each PoP announces its block; JANET's block is also announced at
    // the UK PoP with a better local-pref from the customer session.
    rib.insert({traffic::pop_prefix(node.id), node.id, 100, 2, peer++});
  }
  rib.insert({traffic::pop_prefix(scenario.net.janet), scenario.net.uk, 200,
              1, peer++});
  const netflow::EgressMap egress = rib.to_egress_map();
  std::printf("BGP RIB: %zu prefixes, %zu routes -> LPM map with %zu"
              " entries\n",
              rib.prefix_count(), rib.route_count(), egress.size());

  // --- Control plane 2: IS-IS LSDB. ---
  isis::LinkStateDb lsdb(graph);
  for (const isis::Lsp& lsp : isis::LinkStateDb::full_database(graph, 1))
    lsdb.install(lsp);
  const topo::LinkId uk_nl = *graph.find_link("UK", "NL");
  std::printf("IS-IS LSDB complete: %s; failed links: %zu\n",
              lsdb.complete() ? "yes" : "no", lsdb.failed_links().size());

  // --- Control plane 3: SNMP-measured link loads. ---
  Rng snmp(7);
  const traffic::LinkLoads loads = telemetry::measured_loads(
      graph, scenario.demands, 120.0, 60.0, snmp, {});
  std::printf("SNMP: %zu link load measurements\n\n", loads.size());

  // --- The multi-tenant query service. ---
  // One injected clock drives deadline stamping, quota refill, and
  // flight-recorder timestamps, so the backpressure demonstrations below
  // age requests out by advancing time instead of sleeping — the run is
  // deterministic and never waits on the wall clock.
  obs::ManualClock clock;
  obs::SolverTrace trace(1 << 14);

  tenant::TenantRegistry registry(&clock);

  tenant::TenantServiceOptions service_options;
  service_options.queue_capacity = 16;
  service_options.batch.max_batch = 8;
  service_options.clock = &clock;
  service_options.cache.max_entries =
      static_cast<std::size_t>(env_or("NETMON_CACHE_ENTRIES", 256));
  if (obs_dir != nullptr) service_options.solver_trace = &trace;
  tenant::TenantService service(registry, service_options);

  // Tenant 1: the GEANT backbone, from the control planes above. First
  // publish makes it the default tenant for requests with no name.
  tenant::TenantModel geant_model;
  geant_model.graph = graph;
  geant_model.task = scenario.task;
  geant_model.loads = loads;
  std::uint64_t geant_epoch = registry.publish("geant", geant_model);

  // Tenant 2: the Abilene research network, its own task and loads — a
  // second customer of the same serving fleet (the paper's §V-C
  // generalization network).
  const topo::AbileneNetwork abilene = topo::make_abilene();
  tenant::TenantModel abilene_model;
  abilene_model.graph = abilene.graph;
  abilene_model.task.interval_sec = 300.0;
  traffic::TrafficMatrix abilene_demands = traffic::gravity_matrix(
      abilene.graph, {.total_pkt_per_sec = 6.0e5, .min_mass = 1e-12});
  for (const auto& [name, rate] : topo::abilene_task_rates()) {
    const topo::NodeId dst = *abilene.graph.find_node(name);
    abilene_model.task.ods.push_back({abilene.customer, dst});
    abilene_model.task.expected_packets.push_back(
        rate * abilene_model.task.interval_sec);
    abilene_demands.push_back({{abilene.customer, dst}, rate});
  }
  abilene_model.loads = traffic::link_loads(abilene.graph, abilene_demands);
  abilene_model.problem.theta = 50000.0;
  registry.publish("abilene", abilene_model);
  std::printf("tenants: %zu published (default '%s'), geant epoch %llu\n",
              registry.size(), registry.default_tenant().c_str(),
              static_cast<unsigned long long>(geant_epoch));

  // --- Two consoles: in-process loopback and a real TCP socket. ---
  serve::LoopbackTransport console(service, /*via_wire=*/true);

  serve::TcpServerOptions tcp_options;
  tcp_options.port =
      static_cast<std::uint16_t>(env_or("NETMON_TCP_PORT", 0));
  serve::TcpServer tcp_server(service, tcp_options);
  serve::TcpClient remote("127.0.0.1", tcp_server.port());
  std::printf("service up: %u worker threads, queue capacity %zu, cache"
              " capacity %zu, TCP on 127.0.0.1:%u\n\n",
              service.threads(), service_options.queue_capacity,
              service_options.cache.max_entries, tcp_server.port());

  // Query 1 (loopback): the running GEANT placement. Empty tenant field
  // resolves to the default.
  serve::Request solve;
  solve.id = 1;
  const serve::Response running = console.call(solve);
  std::printf("[query 1] loopback solve -> tenant '%s': %s, %zu active"
              " monitors, utility %.3f (cache: %s)\n",
              running.tenant.c_str(), serve::to_string(running.status),
              running.solutions[0].active_monitors.size(),
              running.solutions[0].total_utility,
              serve::to_string(running.cache));

  // Query 2 (TCP): the same query over the socket. Same tenant, same
  // epoch, same effective parameters -> same fingerprint: the service
  // replays the cached answer bit-identically without invoking the
  // solver, and the wire transport carries it unchanged.
  const std::uint64_t solves_before = service.solver_invocations();
  serve::Request solve_remote;
  solve_remote.id = 2;
  const serve::Response remote_running = remote.send(solve_remote).get();
  std::printf("[query 2] TCP solve -> cache: %s, bit-identical to"
              " loopback: %s, solver invocations unchanged: %s\n",
              serve::to_string(remote_running.cache),
              bit_identical(remote_running.solutions[0],
                            running.solutions[0])
                  ? "yes"
                  : "NO",
              service.solver_invocations() == solves_before ? "yes" : "NO");

  // Query 3: the Abilene tenant — a different network answered by the
  // same service, isolated by name.
  serve::Request abilene_solve;
  abilene_solve.id = 3;
  abilene_solve.tenant = "abilene";
  const serve::Response abilene_running = console.call(abilene_solve);
  std::printf("[query 3] tenant 'abilene': %s, %zu active monitors,"
              " utility %.3f\n",
              serve::to_string(abilene_running.status),
              abilene_running.solutions[0].active_monitors.size(),
              abilene_running.solutions[0].total_utility);

  // Query 4: what-if failure fleet on GEANT, warm-started from the
  // running rates (the LSDB says which links to worry about; here:
  // UK->NL and its reverse). A client-provided warm start is left alone
  // by the cache.
  serve::Request what_if;
  what_if.id = 4;
  what_if.kind = serve::RequestKind::kWhatIfBatch;
  what_if.what_if = {{uk_nl}, {*graph.find_link("NL", "UK")}};
  what_if.warm_start = running.solutions[0].rates;
  const serve::Response failures = console.call(what_if);
  TextTable fail_table({"scenario", "status", "monitors", "utility"});
  for (std::size_t i = 0; i < failures.solutions.size(); ++i)
    fail_table.add_row(
        {"fail link " + std::to_string(what_if.what_if[i][0]),
         serve::to_string(failures.status),
         std::to_string(failures.solutions[i].active_monitors.size()),
         fmt_sci(failures.solutions[i].total_utility, 3)});
  std::printf("[query 4] what-if batch (served in a batch of %u):\n%s\n",
              failures.batch_size, fail_table.render().c_str());

  // Query 5: theta sensitivity sweep on GEANT.
  serve::Request sweep;
  sweep.id = 5;
  sweep.kind = serve::RequestKind::kThetaSweep;
  sweep.thetas = {40000.0, 70000.0, 100000.0, 160000.0, 250000.0};
  const serve::Response sensitivity = console.call(sweep);
  TextTable sweep_table({"theta", "utility", "lambda", "monitors"});
  for (const serve::ThetaPoint& point : sensitivity.sweep)
    sweep_table.add_row({fmt_sci(point.theta, 1),
                         fmt_sci(point.total_utility, 3),
                         fmt_sci(point.lambda, 2),
                         std::to_string(point.active_monitors)});
  std::printf("[query 5] theta sweep:\n%s\n", sweep_table.render().c_str());

  // Query 6: a near-miss — theta 4%% off the cached running placement.
  // No exact entry exists, so the solve warm-starts from the nearest
  // cached neighbour's rates instead of from zero.
  serve::Request near_miss;
  near_miss.id = 6;
  near_miss.theta = 104000.0;
  const serve::Response warmed = console.call(near_miss);
  std::printf("[query 6] theta 104000 near-miss -> cache: %s, %llu"
              " iterations\n",
              serve::to_string(warmed.cache),
              static_cast<unsigned long long>(warmed.solutions[0].iterations));

  // --- RCU snapshot swap under live traffic. ---
  // SNMP re-measures (a new noise draw), the operator republishes GEANT.
  // The swap is one atomic pointer store: in-flight requests keep the
  // snapshot they resolved against, and the new epoch implicitly
  // invalidates every cached GEANT answer — the repeated query 1 is now
  // a fresh solve, not a stale hit.
  Rng resnmp(8);
  tenant::TenantModel remeasured = geant_model;
  remeasured.loads = telemetry::measured_loads(graph, scenario.demands,
                                               120.0, 60.0, resnmp, {});
  geant_epoch = registry.publish("geant", remeasured);
  serve::Request resolve_again;
  resolve_again.id = 7;
  const serve::Response after_swap = console.call(resolve_again);
  std::printf("[swap] geant republished as epoch %llu -> repeated query 1:"
              " cache %s (old epoch's entries unreachable), utility %.3f\n",
              static_cast<unsigned long long>(geant_epoch),
              serve::to_string(after_swap.cache),
              after_swap.solutions[0].total_utility);

  // --- Per-tenant quota. ---
  // Abilene gets a token bucket: burst 4, NETMON_QUOTA_RPS sustained.
  // Eight back-to-back submissions on the frozen clock spend the burst
  // and the rest are typed kRejectedQuota — admission never blocks and
  // never silently drops, and GEANT's quota is untouched.
  tenant::QuotaConfig abilene_quota;
  abilene_quota.tokens_per_sec = env_or("NETMON_QUOTA_RPS", 2.0);
  abilene_quota.burst = 4.0;
  registry.set_quota("abilene", abilene_quota);
  std::vector<std::future<serve::Response>> burst;
  for (std::uint64_t i = 0; i < 8; ++i) {
    serve::Request query;
    query.id = 10 + i;
    query.tenant = "abilene";
    burst.push_back(console.send(std::move(query)));
  }
  std::size_t quota_rejected = 0;
  for (auto& future : burst)
    if (future.get().status == serve::ResponseStatus::kRejectedQuota)
      ++quota_rejected;
  std::printf("[quota] 8 abilene submissions against burst 4 @ %.1f rps ->"
              " %zu typed kRejectedQuota\n",
              abilene_quota.tokens_per_sec, quota_rejected);

  // --- Backpressure demonstration. ---
  // A deadline the service cannot meet is answered with a typed
  // kDeadlineExpired, not a hang: pause the dispatcher so the request
  // ages out in the queue. Distinct thetas make every request a cache
  // miss — hits would be answered synchronously and never park.
  service.pause();
  serve::Request urgent;
  urgent.id = 20;
  urgent.theta = 77700.0;
  urgent.deadline_ms = 1;
  auto urgent_future = console.send(urgent);

  // And submissions beyond the queue bound are rejected immediately.
  std::size_t rejected = 0;
  std::vector<std::future<serve::Response>> flood;
  for (std::uint64_t i = 0; i < 24; ++i) {
    serve::Request query;
    query.id = 100 + i;
    query.theta = 90000.0 + 100.0 * static_cast<double>(i);
    flood.push_back(console.send(std::move(query)));
  }
  clock.advance(std::chrono::milliseconds(10));  // age it out, no sleep
  service.resume();
  const serve::Response urgent_response = urgent_future.get();
  std::printf("[deadline] 1 ms deadline while paused -> %s (%s)\n",
              serve::to_string(urgent_response.status),
              urgent_response.error.c_str());
  for (auto& future : flood)
    if (future.get().status == serve::ResponseStatus::kRejectedQueueFull)
      ++rejected;
  std::printf("[flood] 24 submissions against capacity %zu -> %zu typed"
              " rejections, rest served\n\n",
              service_options.queue_capacity, rejected);

  // --- Deployment artifacts for the failure-epoch placement. ---
  const auto configs = core::router_configs(failures.solutions[0], graph);
  std::printf("router configs for the failure epoch (%zu routers, worst"
              " 1-in-N quantization error %.3f%%):\n\n",
              configs.size(),
              100.0 * core::worst_quantization_error(configs));
  std::printf("%s", core::render_config(configs.front(), graph).c_str());

  const obs::RegistrySnapshot stats = service.metrics().snapshot();
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(stats.find(name)->value);
  };
  std::printf("\nservice stats: submitted %llu, served_ok %llu, batches"
              " %llu, problems_solved %llu\n",
              count("netmon_serve_submitted_total"),
              count("netmon_serve_served_total"),
              count("netmon_serve_batches_total"),
              count("netmon_serve_problems_solved_total"));
  std::printf("cache: %zu entries; tcp: %llu protocol errors\n",
              service.cache().size(),
              static_cast<unsigned long long>(tcp_server.protocol_errors()));

  if (obs_dir != nullptr) {
    const std::string dir(obs_dir);
    std::ofstream(dir + "/trace.jsonl") << trace.jsonl();
    std::ofstream(dir + "/metrics.prom") << service.prometheus();
    std::ofstream(dir + "/flight.jsonl") << service.flight_recorder().jsonl();
    std::printf("obs artifacts: %s/{trace.jsonl,metrics.prom,flight.jsonl}"
                " (%zu trace records, %zu flight events)\n",
                obs_dir, trace.snapshot().size(),
                service.flight_recorder().dump().size());
  }
  return 0;
}
