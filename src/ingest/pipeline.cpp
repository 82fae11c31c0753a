#include "ingest/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sampling/effective_rate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::ingest {

namespace {

std::vector<double> pow2_bounds(double lo, double hi) {
  std::vector<double> bounds;
  for (double b = lo; b <= hi; b *= 2.0) bounds.push_back(b);
  return bounds;
}

/// Largest-first (LPT) assignment: sources in descending `sizes` order,
/// ties by index, each to the least-loaded task, ties by task index. An
/// unknown size (0) weighs one packet, so unknowns still spread
/// round-robin. Returns the source indices each task owns.
std::vector<std::vector<std::size_t>> assign_largest_first(
    const std::vector<std::uint64_t>& sizes, unsigned tasks) {
  std::vector<std::size_t> order(sizes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes[a] > sizes[b];
                   });
  std::vector<std::vector<std::size_t>> owned(tasks);
  std::vector<std::uint64_t> load(tasks, 0);
  for (const std::size_t i : order) {
    const auto p = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owned[p].push_back(i);
    load[p] += std::max<std::uint64_t>(sizes[i], 1);
  }
  return owned;
}

/// Packets moved per next_batch call.
constexpr std::size_t kBatch = 256;

}  // namespace

/// Everything keyed by one source (== one monitored-link stream). Only
/// the task that owns the source touches it, so no field needs locking.
struct IngestPipeline::SourceState {
  explicit SourceState(sampling::LinkSampler link_sampler)
      : sampler(std::move(link_sampler)) {}

  std::unique_ptr<PacketSource> source;
  sampling::LinkSampler sampler;
  std::unique_ptr<netflow::FlowTable> table;
  std::vector<netflow::FlowRecord> exported;
  topo::LinkId link = topo::kInvalidId;
  double rate = 0.0;
  double last_ts = 0.0;
  std::uint64_t produced = 0;
  std::uint64_t consumed = 0;
  std::uint64_t sampled = 0;
};

IngestPipeline::IngestPipeline(const sampling::RateVector& rates,
                               const netflow::EgressMap& egress,
                               IngestOptions options, IngestDeps deps)
    : rates_(rates),
      options_(options),
      deps_(deps),
      collector_(egress, options.collector) {
  if (deps_.metrics != nullptr) {
    obs::MetricsRegistry& m = *deps_.metrics;
    packets_total_ = m.counter("netmon_ingest_packets_total",
                               "packets emitted by all sources");
    sampled_total_ = m.counter("netmon_ingest_sampled_total",
                               "packets sampled into flow tables");
    batches_total_ = m.counter("netmon_ingest_batches_total",
                               "batches sampled and folded");
    exported_total_ = m.counter("netmon_ingest_exported_records_total",
                                "flow records exported to the collector");
    produce_batch_ns_ =
        m.histogram("netmon_ingest_produce_batch_ns",
                    pow2_bounds(256.0, 16777216.0),
                    "source next_batch latency");
    consume_batch_ns_ =
        m.histogram("netmon_ingest_consume_batch_ns",
                    pow2_bounds(256.0, 16777216.0),
                    "sample+fold latency per batch");
    packets_per_sec_ = m.gauge("netmon_ingest_pkts_per_sec",
                               "sustained ingest throughput of the run");
  }
}

IngestPipeline::~IngestPipeline() = default;

void IngestPipeline::add_source(std::unique_ptr<PacketSource> source) {
  NETMON_REQUIRE(!ran_, "pipeline already ran");
  NETMON_REQUIRE(source != nullptr, "null source");
  const topo::LinkId link = source->link();
  NETMON_REQUIRE(link < rates_.size() && rates_[link] > 0.0,
                 "source link has no sampling rate in force");

  const Rng root(options_.seed);
  auto state = std::make_unique<SourceState>(sampling::LinkSampler(
      options_.sampler, rates_[link], root.substream(link)()));
  state->link = link;
  state->rate = rates_[link];
  state->source = std::move(source);
  SourceState* raw = state.get();
  state->table = std::make_unique<netflow::FlowTable>(
      link, options_.flow_table,
      [raw](const netflow::FlowRecord& record) {
        raw->exported.push_back(record);
      });
  if (options_.expected_flows_per_link > 0) {
    state->table->reserve(options_.expected_flows_per_link);
    state->exported.reserve(2 * options_.expected_flows_per_link);
  }
  sources_.push_back(std::move(state));
}

void IngestPipeline::add_sources(
    std::vector<std::unique_ptr<PacketSource>> sources) {
  for (auto& source : sources) add_source(std::move(source));
}

void IngestPipeline::process_batch(SourceState& state,
                                   const PacketRecord* records,
                                   std::size_t count) {
  const obs::Clock* clock = deps_.clock;
  const auto t0 = (consume_batch_ns_ && clock != nullptr) ? clock->now()
                                                          : obs::TimePoint{};
  std::uint64_t sampled = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const PacketRecord& record = records[i];
    // Monotonic clamp: the flow table requires non-decreasing time.
    const double ts = std::max(record.ts_sec, state.last_ts);
    state.last_ts = ts;
    if (state.sampler.sample()) {
      state.table->observe(record.key, record.bytes, ts, record.fin());
      ++sampled;
    }
  }
  state.consumed += count;
  state.sampled += sampled;
  batches_total_.inc();
  sampled_total_.inc(sampled);
  if (consume_batch_ns_ && clock != nullptr)
    consume_batch_ns_.observe(
        static_cast<double>(obs::to_ns(clock->now()) - obs::to_ns(t0)));
}

void IngestPipeline::run_task(const std::vector<std::size_t>& owned) {
  const obs::Clock* clock = deps_.clock;
  PacketRecord batch[kBatch];
  std::vector<SourceState*> pending;
  for (const std::size_t i : owned) pending.push_back(sources_[i].get());

  // Drain each source until it is exhausted or, when paced, has nothing
  // due; a paced source is revisited after the task's other sources.
  while (!pending.empty()) {
    bool progress = false;
    for (auto it = pending.begin(); it != pending.end();) {
      SourceState& s = **it;
      while (!s.source->exhausted()) {
        const auto t0 = (produce_batch_ns_ && clock != nullptr)
                            ? clock->now()
                            : obs::TimePoint{};
        const std::size_t n = s.source->next_batch(batch, kBatch);
        if (produce_batch_ns_ && clock != nullptr)
          produce_batch_ns_.observe(static_cast<double>(
              obs::to_ns(clock->now()) - obs::to_ns(t0)));
        if (n == 0) break;
        s.produced += n;
        packets_total_.inc(n);
        process_batch(s, batch, n);
        progress = true;
      }
      if (s.source->exhausted()) {
        // End of stream: expire and export everything still cached.
        s.table->flush(s.last_ts);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (!progress && !pending.empty()) std::this_thread::yield();
  }
}

IngestStats IngestPipeline::run() {
  NETMON_REQUIRE(!ran_, "IngestPipeline::run is one-shot");
  ran_ = true;
  const obs::Clock& clock =
      deps_.clock != nullptr ? *deps_.clock : obs::Clock::system();
  const obs::TimePoint t0 = clock.now();

  stats_ = {};
  stats_.sources = sources_.size();
  if (!sources_.empty()) {
    const auto n = static_cast<unsigned>(sources_.size());
    const unsigned tasks = std::clamp(options_.producers, 1u, n);
    stats_.tasks = tasks;
    std::vector<std::uint64_t> sizes(sources_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i)
      sizes[i] = sources_[i]->source->expected_packets();
    const std::vector<std::vector<std::size_t>> owned =
        assign_largest_first(sizes, tasks);
    if (deps_.pool != nullptr) {
      // The caller helps run the tasks via wait().
      runtime::TaskGroup group(*deps_.pool);
      for (unsigned t = 0; t < tasks; ++t)
        group.run([this, &owned, t] { run_task(owned[t]); });
      group.wait();
    } else {
      for (const std::vector<std::size_t>& sources : owned) run_task(sources);
    }
  }

  // Single-threaded tail: feed the collector in source order (the
  // aggregation is commutative, so this order is presentational only).
  for (const auto& state : sources_) {
    for (const netflow::FlowRecord& record : state->exported)
      collector_.receive(record, state->link, state->rate);
    stats_.exported_records += state->exported.size();
    stats_.offered_packets += state->produced;
    stats_.consumed_packets += state->consumed;
    stats_.sampled_packets += state->sampled;
  }
  exported_total_.inc(stats_.exported_records);

  stats_.elapsed_sec =
      std::chrono::duration<double>(clock.now() - t0).count();
  stats_.packets_per_sec =
      stats_.elapsed_sec > 0.0
          ? static_cast<double>(stats_.consumed_packets) / stats_.elapsed_sec
          : 0.0;
  packets_per_sec_.set(stats_.packets_per_sec);
  return stats_;
}

std::vector<double> od_rate_estimates(const netflow::Collector& collector,
                                      const routing::RoutingMatrix& matrix,
                                      const sampling::RateVector& rates,
                                      std::int64_t bin, double bin_sec) {
  NETMON_REQUIRE(bin_sec > 0.0, "bin length must be positive");
  const std::vector<double> rhos =
      sampling::effective_rates_approx(matrix, rates);
  std::vector<double> estimates(matrix.od_count(), kNoEstimate);
  for (std::size_t k = 0; k < matrix.od_count(); ++k) {
    if (rhos[k] <= 1e-12) continue;
    const std::uint64_t sampled =
        collector.sampled_packets(bin, matrix.od(k));
    estimates[k] =
        static_cast<double>(sampled) / (rhos[k] * bin_sec);
  }
  return estimates;
}

}  // namespace netmon::ingest
