// PERF — ingest pipeline throughput. Replays one interval of GEANT-wide
// synthetic traffic (gravity background + JANET task demands) through
// the full packet path — per-link sources -> per-link samplers -> flow
// tables, as run-to-completion tasks on the pool — and reports sustained
// packets/sec. Emits BENCH_ingest.json rows:
//   throughput — pkts/sec through the full pipeline (best of 3), the
//                offered and consumed packet counts (must be equal: the
//                pipeline is lossless), exported volume
//   replay     — single-thread SyntheticLinkSource replay of the busiest
//                link, pkts/sec (best of 5): one task's ceiling
// scripts/perf_gate.sh holds throughput to a >= 1M pkts/sec floor (on
// machines with >= 4 hardware threads), offered == consumed exactly,
// and the throughput row to a regression band against the baseline.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "netmon.hpp"
#include "util/bench_report.hpp"

namespace {

using namespace netmon;

struct Instance {
  core::GeantScenario scenario = core::make_geant_scenario();
  routing::RoutingMatrix matrix;
  netflow::EgressMap egress;
  ingest::SyntheticTraffic traffic;
  sampling::RateVector rates;
  topo::LinkId busiest = 0;

  static routing::RoutingMatrix demand_matrix(const core::GeantScenario& s) {
    std::vector<routing::OdPair> ods;
    ods.reserve(s.demands.size());
    for (const traffic::Demand& d : s.demands) ods.push_back(d.od);
    return routing::RoutingMatrix::single_path(s.net.graph, ods);
  }

  static ingest::SyntheticOptions synth_options() {
    ingest::SyntheticOptions options;
    // ~4 trace-seconds of the 1.4M pkt/s network: several million
    // packets total, a few hundred thousand per monitored link.
    options.flowgen.interval_sec = 4.0;
    return options;
  }

  Instance()
      : matrix(demand_matrix(scenario)),
        egress(netflow::EgressMap::for_pop_blocks(scenario.net.graph)),
        traffic(matrix, scenario.demands, synth_options()) {
    // Monitor the 8 busiest links at a deployment-plausible 5%.
    std::vector<topo::LinkId> links(scenario.net.graph.link_count());
    std::iota(links.begin(), links.end(), topo::LinkId{0});
    std::sort(links.begin(), links.end(), [&](topo::LinkId a, topo::LinkId b) {
      return traffic.packets_on(a) > traffic.packets_on(b);
    });
    rates.assign(scenario.net.graph.link_count(), 0.0);
    for (std::size_t i = 0; i < 8 && i < links.size(); ++i)
      rates[links[i]] = 0.05;
    busiest = links.front();
  }

  ingest::IngestStats run(runtime::ThreadPool& pool) {
    ingest::IngestOptions options;
    options.producers = 2;
    options.expected_flows_per_link = 1 << 14;
    options.collector.bin_sec = 4.0;
    ingest::IngestDeps deps;
    deps.pool = &pool;
    ingest::IngestPipeline pipeline(rates, egress, options, deps);
    pipeline.add_sources(traffic.sources(rates));
    return pipeline.run();
  }
};

/// Single-thread replay rate of one link's source, best of 5.
double replay_pkts_per_sec(const ingest::SyntheticTraffic& traffic,
                           topo::LinkId link) {
  std::vector<ingest::PacketRecord> batch(256);
  double best_ms = 0.0;
  for (int round = 0; round < 5; ++round) {
    const auto source = traffic.source(link);
    StopWatch watch;
    while (source->next_batch(batch.data(), batch.size()) != 0) {
    }
    const double ms = watch.elapsed_ms();
    if (round == 0 || ms < best_ms) best_ms = ms;
  }
  return static_cast<double>(traffic.packets_on(link)) / (best_ms * 1e-3);
}

}  // namespace

int main() {
  const unsigned threads = runtime::threads_from_env();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("== ingest_perf: packet pipeline throughput (%u threads) ==\n",
              threads);

  Instance instance;
  runtime::ThreadPool pool(threads);
  std::uint64_t offered = 0;
  for (topo::LinkId l = 0; l < instance.rates.size(); ++l)
    if (instance.rates[l] > 0.0) offered += instance.traffic.packets_on(l);
  std::printf("  instance: %zu monitored links, %llu packets offered\n",
              instance.traffic.sources(instance.rates).size(),
              static_cast<unsigned long long>(offered));

  // Lossless throughput: best of 3 (scheduling noise only slows a run).
  ingest::IngestStats best{};
  for (int round = 0; round < 3; ++round) {
    const ingest::IngestStats stats = instance.run(pool);
    if (round == 0 || stats.packets_per_sec > best.packets_per_sec)
      best = stats;
  }
  const bool lossless = best.consumed_packets == best.offered_packets;
  std::printf(
      "  throughput: %.2fM pkts/sec (%s, %llu sampled, "
      "%llu records exported, %.1f ms)\n",
      best.packets_per_sec * 1e-6,
      lossless ? "lossless" : "PACKETS LOST",
      static_cast<unsigned long long>(best.sampled_packets),
      static_cast<unsigned long long>(best.exported_records),
      best.elapsed_sec * 1e3);

  const double replay_rate =
      replay_pkts_per_sec(instance.traffic, instance.busiest);
  std::printf("  replay: %.1fM pkts/sec (busiest link %u, %llu packets, "
              "1 thread)\n",
              replay_rate * 1e-6, instance.busiest,
              static_cast<unsigned long long>(
                  instance.traffic.packets_on(instance.busiest)));

  BenchReport report("ingest_perf", threads);
  report.result("throughput")
      .metric("ingest_pkts_per_sec", best.packets_per_sec)
      .metric("offered_packets", static_cast<double>(best.offered_packets))
      .metric("consumed_packets", static_cast<double>(best.consumed_packets))
      .metric("exported_records",
              static_cast<double>(best.exported_records))
      .metric("elapsed_ms", best.elapsed_sec * 1e3)
      .metric("hw_threads", static_cast<double>(hw));
  report.result("replay").metric("replay_pkts_per_sec", replay_rate);
  report.emit();
  return lossless ? 0 : 1;
}
