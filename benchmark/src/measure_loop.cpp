// measure_loop: packets in -> ingest -> OD estimates -> control decision,
// one measurement bin at a time over a replayed diurnal day.
//
// Each bin replays one bin of synthetic JANET traffic on GEANT (input
// generation, untimed) through a fresh IngestPipeline at the sampling
// rates the loop has in force, turns the collector bin into OD rate
// estimates, and steps the control loop. The bin's wall time, from
// pipeline construction to the StepResult, is the answer latency.
#include <cstring>
#include <memory>
#include <numeric>

#include "netmon.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace netmon;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

/// The JANET task on GEANT with expected packets rescaled to `bin_sec`.
core::MeasurementTask bin_task(const topo::GeantNetwork& net, double bin_sec) {
  core::MeasurementTask task = core::janet_task(net);
  task.interval_sec = bin_sec;
  for (double& expected : task.expected_packets) expected *= bin_sec / 300.0;
  return task;
}

routing::RoutingMatrix task_matrix(const topo::GeantNetwork& net,
                                   const core::MeasurementTask& task,
                                   const traffic::TrafficMatrix& demands) {
  std::vector<routing::OdPair> ods;
  for (const traffic::Demand& d : demands) ods.push_back(d.od);
  if (ods != task.ods) throw Error("JANET demands and task ODs differ");
  return routing::RoutingMatrix::single_path(net.graph, ods);
}

/// Loop defaults with a budget of 100,000 sampled packets per 30 s (the
/// ingest_replay example's regime) rescaled to the bin, so the sampled
/// share of the traffic does not depend on the bin length.
control::ControlConfig bin_config(double bin_sec) {
  control::ControlConfig config;
  config.problem.theta = 100000.0 * bin_sec / 30.0;
  return config;
}

struct Instance {
  explicit Instance(double bin_sec)
      : net(topo::make_geant()),
        task(bin_task(net, bin_sec)),
        demands(core::janet_demands(net)),
        matrix(task_matrix(net, task, demands)),
        egress(netflow::EgressMap::for_pop_blocks(net.graph)),
        loop(net.graph, task, bin_config(bin_sec)) {
    // The first placement comes from loads alone: bin 1 needs rates.
    control::BinObservation observation;
    observation.loads = traffic::link_loads(net.graph, demands);
    first = loop.step(observation);
  }

  topo::GeantNetwork net;
  core::MeasurementTask task;
  traffic::TrafficMatrix demands;
  routing::RoutingMatrix matrix;
  netflow::EgressMap egress;
  control::ControlLoop loop;
  control::StepResult first;
  runtime::ThreadPool ingest_pool{2};
};

/// One bin's packets: the JANET demands at time of day `t`.
ingest::SyntheticTraffic bin_traffic(const Instance& instance,
                                     const traffic::TrafficMatrix& tm,
                                     double bin_sec, std::uint64_t seed) {
  ingest::SyntheticOptions options;
  options.flowgen.interval_sec = bin_sec;
  options.seed = seed;
  return ingest::SyntheticTraffic(instance.matrix, tm, options);
}

/// A pipeline with every monitored link's source attached. `rates` is
/// borrowed by the pipeline and must outlive it.
std::unique_ptr<ingest::IngestPipeline> make_pipeline(
    Instance& instance, const sampling::RateVector& rates,
    const ingest::SyntheticTraffic& packets, double bin_sec,
    std::uint64_t seed) {
  ingest::IngestOptions options;
  options.collector.bin_sec = bin_sec;
  options.producers = 2;
  options.seed = seed;
  options.expected_flows_per_link = 1 << 12;
  ingest::IngestDeps deps;
  deps.pool = &instance.ingest_pool;
  auto pipeline = std::make_unique<ingest::IngestPipeline>(
      rates, instance.egress, options, deps);
  pipeline->add_sources(packets.sources(rates));
  return pipeline;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr double kDaySec = 86400.0;

}  // namespace

Outcome run_measure_loop(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  out.load_threads = 2;  // the ingest producers
  // One day of 120 bins, each carrying 5 s of traffic (~0.35M packets).
  // The shape is fixed, so --seconds does not change it; a run takes about
  // 10 s on a 4-core x86 box.
  const int bins = config.smoke ? 6 : 120;
  const double bin_sec = config.smoke ? 0.5 : 5.0;
  const traffic::DiurnalPattern day(0.3, 14.0 * 3600.0);

  const std::unique_ptr<Instance> instance =
      timed_setup(15, &out.metrics["setup_s"],
                  [&] { return std::make_unique<Instance>(bin_sec); });
  out.check(instance->loop.have_rates() && !instance->first.skipped,
            "first placement installed");

  std::vector<double> bin_ms, offered, records, warm_iters;
  double gen_ms = 0.0, ingest_ms = 0.0, estimate_ms = 0.0, step_ms = 0.0,
         wall_ms = 0.0;
  std::uint64_t sampled = 0, consumed = 0;
  const int resolves_before = instance->loop.resolves();
  const int pushes_before = instance->loop.reconfigurations();
  sampling::RateVector replay_rates;
  std::vector<double> replay_estimates;

  for (int bin = 1; bin <= bins; ++bin) {
    const std::int64_t gen_start = now_ns();
    const double t = kDaySec * (bin - 1) / bins;
    const traffic::TrafficMatrix tm =
        traffic::matrix_at(instance->demands, day, {}, t);
    control::BinObservation observation;
    observation.loads = traffic::link_loads(instance->net.graph, tm);
    const ingest::SyntheticTraffic packets =
        bin_traffic(*instance, tm, bin_sec, mix(config.seed, bin));
    const sampling::RateVector rates = instance->loop.rates();
    gen_ms += ns_to_ms(now_ns() - gen_start);

    const std::uint64_t trace_id = tracer.next_id();
    const std::uint64_t root = tracer.next_id();
    const std::int64_t b0 = now_ns();
    const std::int64_t s0 = now_ns();
    auto pipeline = make_pipeline(*instance, rates, packets, bin_sec,
                                  mix(config.seed, 1000 + bin));
    const ingest::IngestStats stats = pipeline->run();
    const std::int64_t s1 = now_ns();
    tracer.span(trace_id, root, "ingest.run", s0, s1);
    const std::int64_t s2 = now_ns();
    observation.od_rates = ingest::od_rate_estimates(
        pipeline->collector(), instance->matrix, rates, 0, bin_sec);
    const std::int64_t s3 = now_ns();
    tracer.span(trace_id, root, "ingest.estimate", s2, s3);
    const std::int64_t s4 = now_ns();
    const control::StepResult step = instance->loop.step(observation);
    const std::int64_t s5 = now_ns();
    tracer.span(trace_id, root, "control.step", s4, s5);
    const std::int64_t b1 = now_ns();
    tracer.record({trace_id, root, 0, "measure.bin", b0, b1});

    const double wall = ns_to_ms(b1 - b0);
    const double stages = ns_to_ms((s1 - s0) + (s3 - s2) + (s5 - s4));
    bin_ms.push_back(wall);
    wall_ms += wall;
    ingest_ms += ns_to_ms(s1 - s0);
    estimate_ms += ns_to_ms(s3 - s2);
    step_ms += ns_to_ms(s5 - s4);
    offered.push_back(static_cast<double>(stats.offered_packets));
    records.push_back(static_cast<double>(stats.exported_records));
    sampled += stats.sampled_packets;
    consumed += stats.consumed_packets;
    if (step.resolved) warm_iters.push_back(step.solve_iterations);

    std::size_t missing = 0;
    for (double estimate : observation.od_rates)
      if (estimate == ingest::kNoEstimate) ++missing;
    const std::string tag = "bin " + std::to_string(bin) + ": ";
    out.check(stats.dropped_packets == 0 && stats.offered_packets > 0 &&
                  !step.skipped && !step.solve_expired && missing == 0,
              tag + "lossless, estimated every OD, decided");
    // The stages must account for the bin: what the spans leave out is
    // the benchmark's own bookkeeping.
    out.check(stages >= 0.95 * wall, tag + "stage spans sum to the bin wall");
    if (bin == 1) {
      replay_rates = rates;
      replay_estimates = observation.od_rates;
    }
  }

  // Determinism gate: bin 1 replayed from its seed and the rates then in
  // force yields bit-identical estimates.
  {
    const traffic::TrafficMatrix tm =
        traffic::matrix_at(instance->demands, day, {}, 0.0);
    const ingest::SyntheticTraffic packets =
        bin_traffic(*instance, tm, bin_sec, mix(config.seed, 1));
    auto pipeline = make_pipeline(*instance, replay_rates, packets, bin_sec,
                                  mix(config.seed, 1001));
    pipeline->run();
    const std::vector<double> estimates = ingest::od_rate_estimates(
        pipeline->collector(), instance->matrix, replay_rates, 0, bin_sec);
    out.check(bit_identical(estimates, replay_estimates),
              "bin 1 replay reproduces its estimates bit-for-bit");
  }

  const control::ControlLoop& loop = instance->loop;
  const int resolves = loop.resolves() - resolves_before;
  const int pushes = loop.reconfigurations() - pushes_before;
  std::printf("measure_loop: %d bins of %.3g s traffic, %.0f pkts/bin (p50),"
              " %d re-solves, %d pushes, step share %.3f%%\n",
              bins, bin_sec, quantile(offered, 0.5), resolves, pushes,
              100.0 * step_ms / wall_ms);
  std::printf("  bin p50 %.3f ms, p90 %.3f ms (%zu bins, %zu beyond p90)\n",
              quantile(bin_ms, 0.5), quantile(bin_ms, 0.9), bin_ms.size(),
              bin_ms.size() / 10);

  auto& m = out.metrics;
  m["p50_ms"] = quantile(bin_ms, 0.5);
  m["p90_ms"] = quantile(bin_ms, 0.9);

  m["traffic.input_gen_ms"] = gen_ms;
  m["core.solver_invocations"] = resolves;
  m["opt.iters_cold_mean"] = instance->first.solve_iterations;
  if (!warm_iters.empty()) m["opt.iters_warm_mean"] = mean_of(warm_iters);
  m["ingest.run_pct"] = 100.0 * ingest_ms / wall_ms;
  m["ingest.estimate_pct"] = 100.0 * estimate_ms / wall_ms;
  m["ingest.pkts_per_bin"] = quantile(offered, 0.5);
  // Packets offered over the day per second of bin wall time.
  m["ingest.pkts_per_s"] =
      std::accumulate(offered.begin(), offered.end(), 0.0) / (wall_ms * 1e-3);
  m["ingest.sampled_ratio"] =
      consumed != 0 ? static_cast<double>(sampled) / consumed : 0.0;
  m["netflow.records_per_bin"] = quantile(records, 0.5);
  m["control.step_pct"] = 100.0 * step_ms / wall_ms;
  m["control.resolve_ratio"] = static_cast<double>(resolves) / bins;
  m["control.push_per_resolve"] =
      resolves != 0 ? static_cast<double>(pushes) / resolves : 0.0;
  return out;
}

}  // namespace bench
