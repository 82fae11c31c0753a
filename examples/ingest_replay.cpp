// Ingest replay demo: the full packet-to-placement chain, driven
// deterministically by a ManualClock — no sleeps, no wall-clock races.
//
//   1. The control loop solves the JANET task on GEANT and installs
//      sampling rates (bin 1, loads only).
//   2. One measurement interval of synthetic traffic is replayed through
//      the ingest pipeline (sources -> per-link samplers -> flow tables
//      -> collector, as run-to-completion tasks) under those rates; the
//      X_k / rho_k estimates feed bin 2.
//   3. The same monitored streams are written out as pcap traces and
//      replayed back through TraceReader sources — the trace path and
//      the synthetic path drive the loop with the same estimates.
//   4. A paced TraceReader shows deterministic clock-driven release:
//      advancing the ManualClock releases exactly the packets due.
//
// With NETMON_OBS_DIR set, writes ingest_metrics.prom and
// ingest_metrics.jsonl for scripts/check_obs.sh to validate.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "netmon.hpp"

using namespace netmon;
using namespace std::chrono_literals;

namespace {

/// One interval replayed through an IngestPipeline built from `make`.
std::vector<double> replay_bin(
    const sampling::RateVector& rates, const netflow::EgressMap& egress,
    const routing::RoutingMatrix& matrix, double interval_sec,
    obs::MetricsRegistry& metrics,
    std::vector<std::unique_ptr<ingest::PacketSource>> sources,
    ingest::IngestStats* stats_out) {
  ingest::IngestOptions options;
  options.collector.bin_sec = interval_sec;
  options.producers = 2;  // run-to-completion tasks
  options.expected_flows_per_link = 1 << 12;
  ingest::IngestDeps deps;
  deps.metrics = &metrics;
  ingest::IngestPipeline pipeline(rates, egress, options, deps);
  pipeline.add_sources(std::move(sources));
  const ingest::IngestStats stats = pipeline.run();
  if (stats_out != nullptr) *stats_out = stats;
  return ingest::od_rate_estimates(pipeline.collector(), matrix, rates, 0,
                                   interval_sec);
}

}  // namespace

int main() {
  std::printf("== ingest_replay: packets -> estimates -> control ==\n\n");

  // The JANET measurement task on GEANT, compressed to 30-second
  // intervals so the demo replays a few hundred thousand packets.
  const topo::GeantNetwork net = topo::make_geant();
  core::MeasurementTask task = core::janet_task(net);
  const traffic::TrafficMatrix demands = core::janet_demands(net);
  constexpr double kIntervalSec = 30.0;
  task.interval_sec = kIntervalSec;
  for (double& expected : task.expected_packets)
    expected *= kIntervalSec / 300.0;  // rescale Table-I sizes

  std::vector<routing::OdPair> ods;
  for (const traffic::Demand& d : demands) ods.push_back(d.od);
  const routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(net.graph, ods);
  const netflow::EgressMap egress =
      netflow::EgressMap::for_pop_blocks(net.graph);

  obs::ManualClock clock;
  obs::MetricsRegistry metrics;
  control::ControlDeps loop_deps;
  loop_deps.clock = &clock;
  control::ControlLoop loop(net.graph, task, {}, loop_deps);

  // -- bin 1: loads only; the loop installs sampling rates. --
  control::BinObservation first;
  first.loads = traffic::link_loads(net.graph, demands);
  const control::StepResult r1 = loop.step(first);
  std::size_t monitors = 0;
  for (double rate : loop.rates())
    if (rate > 0.0) ++monitors;
  std::printf("bin 1: solved from loads — %zu monitors, utility %.4g\n",
              monitors, r1.utility);
  clock.advance(30s);

  // -- bin 2: synthetic packets through the ingest pipeline. --
  ingest::SyntheticOptions synth;
  synth.flowgen.interval_sec = kIntervalSec;
  const ingest::SyntheticTraffic traffic(matrix, demands, synth);
  ingest::IngestStats stats;
  const std::vector<double> estimates =
      replay_bin(loop.rates(), egress, matrix, kIntervalSec, metrics,
                 traffic.sources(loop.rates()), &stats);
  std::printf(
      "bin 2: ingest replay — %zu sources, %llu packets, %llu sampled,\n"
      "       %llu flow records, drop rate %.4f, %.2fM pkts/sec\n",
      stats.sources, static_cast<unsigned long long>(stats.offered_packets),
      static_cast<unsigned long long>(stats.sampled_packets),
      static_cast<unsigned long long>(stats.exported_records),
      static_cast<double>(stats.offered_packets - stats.consumed_packets) /
          static_cast<double>(stats.offered_packets),
      stats.packets_per_sec * 1e-6);

  control::BinObservation second;
  second.loads = first.loads;
  second.od_rates = estimates;
  const control::StepResult r2 = loop.step(second);
  std::size_t estimated = 0;
  for (double e : estimates)
    if (e != ingest::kNoEstimate) ++estimated;
  std::printf("       loop consumed %zu/%zu OD estimates -> %s\n", estimated,
              estimates.size(),
              r2.reconfigured ? "reconfigured" : "held placement");
  clock.advance(30s);

  // -- bin 3: the same streams, via pcap traces on disk. --
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr ? tmp : "/tmp";
  std::vector<std::unique_ptr<ingest::PacketSource>> replayed;
  std::uint64_t trace_bytes = 0;
  for (auto& source : traffic.sources(loop.rates())) {
    std::vector<ingest::PacketRecord> packets;
    ingest::PacketRecord buf[512];
    for (std::size_t n; (n = source->next_batch(buf, 512)) > 0;)
      packets.insert(packets.end(), buf, buf + n);
    const std::vector<std::uint8_t> bytes = ingest::encode_trace(packets);
    trace_bytes += bytes.size();
    const std::string path = dir + "/netmon_ingest_replay_link" +
                             std::to_string(source->link()) + ".pcap";
    ingest::write_trace(path, packets);
    replayed.push_back(std::make_unique<ingest::TraceReader>(
        ingest::TraceReader::from_file(path, {.link = source->link()})));
    std::remove(path.c_str());
  }
  const std::vector<double> trace_estimates =
      replay_bin(loop.rates(), egress, matrix, kIntervalSec, metrics,
                 std::move(replayed), nullptr);
  double worst = 0.0;
  for (std::size_t k = 0; k < estimates.size(); ++k) {
    if (estimates[k] == ingest::kNoEstimate) continue;
    const double rel =
        std::abs(trace_estimates[k] - estimates[k]) /
        std::max(1.0, estimates[k]);
    if (rel > worst) worst = rel;
  }
  std::printf(
      "bin 3: pcap round trip — %.1f MB of traces re-ingested;\n"
      "       worst estimate divergence vs synthetic path: %.2g\n",
      static_cast<double>(trace_bytes) * 1e-6, worst);
  control::BinObservation third;
  third.loads = first.loads;
  third.od_rates = trace_estimates;
  loop.step(third);
  clock.advance(30s);

  // -- pacing demo: the ManualClock releases packets on schedule. --
  std::vector<ingest::PacketRecord> paced_packets;
  for (int i = 0; i < 10; ++i) {
    ingest::PacketRecord p;
    p.key.src_ip = 0x0a000001;
    p.key.dst_ip = 0x0a010001;
    p.key.proto = 17;
    p.bytes = 100;
    p.ts_sec = static_cast<double>(i);
    paced_packets.push_back(p);
  }
  ingest::TraceReader paced(
      ingest::encode_trace(paced_packets),
      {.link = 0, .speed = 2.0, .clock = &clock});
  std::printf("pacing: 10 packets at 1 Hz replayed at speed 2 —");
  ingest::PacketRecord buf[16];
  std::size_t released = paced.next_batch(buf, 16);
  std::printf(" t+0s:%zu", released);
  for (int step = 0; step < 3 && !paced.exhausted(); ++step) {
    clock.advance(1s);  // 1 clock-second = 2 trace-seconds
    released = paced.next_batch(buf, 16);
    std::printf(" +1s:%zu", released);
  }
  clock.advance(10s);
  released = paced.next_batch(buf, 16);
  std::printf(" +10s:%zu -> exhausted=%s\n", released,
              paced.exhausted() ? "yes" : "no");

  std::printf("\nloop summary: %d bins, %d re-solves, %d pushes\n",
              loop.bins(), loop.resolves(), loop.reconfigurations());

  const char* obs_dir = std::getenv("NETMON_OBS_DIR");
  if (obs_dir != nullptr) {
    const std::string out(obs_dir);
    std::ofstream(out + "/ingest_metrics.prom")
        << obs::prometheus_text(metrics);
    std::ofstream(out + "/ingest_metrics.jsonl")
        << obs::metrics_jsonl(metrics);
    std::printf("obs artifacts: %s/{ingest_metrics.prom,"
                "ingest_metrics.jsonl}\n", obs_dir);
  }
  return 0;
}
