// IngestPipeline: packet sources -> sampled per-link flow tables ->
// exporter/collector, as run-to-completion tasks on the runtime pool.
//
//   PacketSource (per link: synthetic replay or pcap trace)
//        |          sources go largest-first (expected_packets) to the
//        |          least-loaded of IngestOptions::producers tasks; each
//        v          task owns its sources outright
//   one task per source set, on runtime::ThreadPool (or the caller):
//   next_batch into a task-local 256-record buffer, then, per packet,
//   monotonic-clamp the timestamp, apply the configured sampling::
//   policy (per-link sampler seeded via Rng::substream(link id)), and
//   fold sampled packets into that link's netflow::FlowTable, whose
//   idle/active/FIN expiries export records into a per-source buffer;
//   an exhausted source's table is flushed at once
//        |
//        v
//   netflow::Collector (5-minute bins, OD attribution via EgressMap)
//        -> od_rate_estimates() -> control::BinObservation::od_rates
//
// Determinism: all per-packet state (sampler stream, flow table, export
// buffer) is keyed by the source, never by the task, and the collector
// aggregation is commutative sums — so for a fixed seed the final
// estimates are identical across runs, task counts and pool sizes. The
// pipeline is lossless: every packet a source emits is sampled or not,
// never dropped. Tasks never wait on each other, so the pool may be
// shared with other work.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ingest/source.hpp"
#include "netflow/collector.hpp"
#include "netflow/flow_table.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sampling/effective_rate.hpp"
#include "sampling/sampler.hpp"

namespace netmon::ingest {

/// Pipeline configuration.
struct IngestOptions {
  netflow::FlowTableOptions flow_table;
  netflow::CollectorOptions collector;
  /// Per-link sampler policy (Bernoulli = the paper's i.i.d. model).
  sampling::SamplerKind sampler = sampling::SamplerKind::kBernoulli;
  /// Run-to-completion tasks (clamped to [1, source count]). Sources go
  /// largest-first by expected_packets() to the least-loaded task, so
  /// the busiest link gets a task of its own.
  unsigned producers = 2;
  /// Root seed: link samplers draw substream(link id) from it.
  std::uint64_t seed = 42;
  /// Pre-size each link's flow table and export buffer for this many
  /// flows (zero-allocation steady state); 0 = no pre-sizing.
  std::size_t expected_flows_per_link = 0;
};

/// Host infrastructure (all optional, borrowed).
struct IngestDeps {
  /// Counter/histogram sink; null = detached no-op handles.
  obs::MetricsRegistry* metrics = nullptr;
  /// Wall-time source for the throughput stats; null = steady clock.
  const obs::Clock* clock = nullptr;
  /// Pool the tasks run on; null = run them one after another on the
  /// caller (still correct, no parallelism).
  runtime::ThreadPool* pool = nullptr;
};

/// One run's totals.
struct IngestStats {
  /// Packets emitted by the sources.
  std::uint64_t offered_packets = 0;
  /// Packets that reached a sampler; equals offered_packets.
  std::uint64_t consumed_packets = 0;
  /// Packets the configured policy sampled into flow tables.
  std::uint64_t sampled_packets = 0;
  /// Always 0: the pipeline is lossless.
  std::uint64_t dropped_packets = 0;
  /// Flow records exported into the collector.
  std::uint64_t exported_records = 0;
  std::size_t sources = 0;
  /// Run-to-completion tasks the sources were split into.
  unsigned tasks = 0;
  double elapsed_sec = 0.0;
  /// consumed_packets / elapsed_sec (0 when the clock stood still).
  double packets_per_sec = 0.0;
};

/// The pipeline. Construct, add sources (one per monitored link), run.
/// Not reusable: one run() per instance.
class IngestPipeline {
 public:
  /// `rates[link]` is the sampling probability in force on each link;
  /// `egress` resolves record endpoints for the collector. Both are
  /// borrowed and must outlive the pipeline.
  IngestPipeline(const sampling::RateVector& rates,
                 const netflow::EgressMap& egress, IngestOptions options = {},
                 IngestDeps deps = {});
  ~IngestPipeline();  // out-of-line: SourceState is incomplete here

  /// Adds one source. Its link must have rates[link] > 0.
  void add_source(std::unique_ptr<PacketSource> source);
  void add_sources(std::vector<std::unique_ptr<PacketSource>> sources);

  /// Drains every source to exhaustion, flushes all flow tables, and
  /// feeds the exported records to the collector. Returns the totals.
  IngestStats run();

  const netflow::Collector& collector() const noexcept { return collector_; }
  const IngestStats& stats() const noexcept { return stats_; }
  std::size_t source_count() const noexcept { return sources_.size(); }

 private:
  struct SourceState;

  void run_task(const std::vector<std::size_t>& owned);
  void process_batch(SourceState& state, const PacketRecord* records,
                     std::size_t count);

  const sampling::RateVector& rates_;
  IngestOptions options_;
  IngestDeps deps_;
  netflow::Collector collector_;
  std::vector<std::unique_ptr<SourceState>> sources_;
  bool ran_ = false;
  IngestStats stats_;

  // Metrics handles (detached no-ops without a registry).
  obs::Counter packets_total_;
  obs::Counter sampled_total_;
  obs::Counter batches_total_;
  obs::Counter exported_total_;
  obs::Histogram produce_batch_ns_;
  obs::Histogram consume_batch_ns_;
  obs::Gauge packets_per_sec_;
};

/// Matches control::kMissing: an observation entry carrying no estimate.
inline constexpr double kNoEstimate = -1.0;

/// Per-OD rate estimates (pkt/s) for one collector bin: the paper's
/// X_k / rho_k estimator with rho from the linearized effective-rate
/// model, divided by the bin length. ODs with rho ~ 0 get kNoEstimate.
/// The result drops straight into control::BinObservation::od_rates.
std::vector<double> od_rate_estimates(const netflow::Collector& collector,
                                      const routing::RoutingMatrix& matrix,
                                      const sampling::RateVector& rates,
                                      std::int64_t bin, double bin_sec);

}  // namespace netmon::ingest
