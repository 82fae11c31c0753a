#include "ingest/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "helpers.hpp"
#include "traffic/flow_generator.hpp"
#include "util/rng.hpp"

namespace netmon::ingest {
namespace {

struct LineScenario {
  topo::Graph graph = test::line_graph();
  traffic::TrafficMatrix tm{{{0, 3}, 120.0}, {{0, 1}, 240.0}};
  routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 3}, {0, 1}});
  topo::LinkId ab, bc;
  SyntheticOptions options;

  LineScenario() {
    ab = *graph.find_link(0, 1);
    bc = *graph.find_link(1, 2);
    options.flowgen.interval_sec = 60.0;
    options.seed = 42;
  }
};

std::vector<PacketRecord> drain(PacketSource& source,
                                std::size_t batch = 128) {
  std::vector<PacketRecord> out;
  std::vector<PacketRecord> buf(batch);
  while (!source.exhausted()) {
    const std::size_t n = source.next_batch(buf.data(), batch);
    if (n == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  }
  return out;
}

TEST(Synthetic, SchedulesMatchFlowPopulations) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  ASSERT_EQ(traffic.flows().size(), 2u);
  const std::uint64_t od0 = traffic::total_packets(traffic.flows()[0]);
  const std::uint64_t od1 = traffic::total_packets(traffic.flows()[1]);
  // A->B carries both ODs, B->C only OD 0 (0 -> 3).
  EXPECT_EQ(traffic.packets_on(s.ab), od0 + od1);
  EXPECT_EQ(traffic.packets_on(s.bc), od0);
  EXPECT_GT(od0, 0u);
  EXPECT_GT(od1, 0u);
}

TEST(Synthetic, ReplayDeliversEveryScheduledPacketInTimeOrder) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  auto source = traffic.source(s.ab);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->link(), s.ab);
  const std::vector<PacketRecord> packets = drain(*source);
  EXPECT_EQ(packets.size(), traffic.packets_on(s.ab));
  double last = -1.0;
  for (const PacketRecord& p : packets) {
    EXPECT_GE(p.ts_sec, last);
    EXPECT_GE(p.ts_sec, 0.0);
    EXPECT_GE(p.bytes, s.options.min_packet_bytes);
    last = p.ts_sec;
  }
  EXPECT_LE(last, s.options.flowgen.interval_sec + 1.0);
  EXPECT_TRUE(source->exhausted());
}

TEST(Synthetic, FinMarksEndOfTcpFlowsOnly) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  auto source = traffic.source(s.ab);
  std::uint64_t fins = 0;
  for (const PacketRecord& p : drain(*source)) {
    if (p.fin()) {
      EXPECT_EQ(p.key.proto, 6) << "FIN on a non-TCP packet";
      ++fins;
    }
  }
  EXPECT_GT(fins, 0u);
  // At most one FIN per flow appearance on the link.
  std::uint64_t tcp_flows = 0;
  for (const auto& population : traffic.flows())
    for (const auto& flow : population)
      if (flow.key.proto == 6) ++tcp_flows;
  EXPECT_LE(fins, tcp_flows);
}

TEST(Synthetic, DeterministicForFixedSeed) {
  LineScenario s;
  SyntheticTraffic a(s.matrix, s.tm, s.options);
  SyntheticTraffic b(s.matrix, s.tm, s.options);
  auto sa = a.source(s.ab);
  auto sb = b.source(s.ab);
  const std::vector<PacketRecord> pa = drain(*sa);
  const std::vector<PacketRecord> pb = drain(*sb);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].key, pb[i].key);
    EXPECT_EQ(pa[i].bytes, pb[i].bytes);
    EXPECT_EQ(pa[i].flags, pb[i].flags);
    EXPECT_EQ(pa[i].ts_sec, pb[i].ts_sec);  // bit-identical
  }
}

TEST(Synthetic, SeedChangesTheStream) {
  LineScenario s;
  SyntheticTraffic a(s.matrix, s.tm, s.options);
  s.options.seed = 43;
  SyntheticTraffic b(s.matrix, s.tm, s.options);
  EXPECT_NE(a.packets_on(s.ab), b.packets_on(s.ab));
}

TEST(Synthetic, SourcesFollowTheMonitoredSet) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  sampling::RateVector rates(s.graph.link_count(), 0.0);
  rates[s.ab] = 0.1;
  auto sources = traffic.sources(rates);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0]->link(), s.ab);

  rates[s.bc] = 0.2;
  EXPECT_EQ(traffic.sources(rates).size(), 2u);

  // A monitored link nothing is routed over yields no source.
  sampling::RateVector off_path(s.graph.link_count(), 0.0);
  off_path[*s.graph.find_link(3, 2)] = 0.5;
  EXPECT_TRUE(traffic.sources(off_path).empty());
}

TEST(Synthetic, BatchSizeDoesNotChangeTheStream) {
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  auto big = traffic.source(s.ab);
  auto small = traffic.source(s.ab);
  const std::vector<PacketRecord> big_stream = drain(*big);
  std::vector<PacketRecord> small_stream;
  PacketRecord one;
  while (small->next_batch(&one, 1) == 1) small_stream.push_back(one);
  ASSERT_EQ(big_stream.size(), small_stream.size());
  for (std::size_t i = 0; i < big_stream.size(); ++i) {
    EXPECT_EQ(big_stream[i].key, small_stream[i].key);
    EXPECT_EQ(big_stream[i].ts_sec, small_stream[i].ts_sec);
  }
}

// ---- Replay vs a materialize-and-sort reference ----------------------

/// Every packet of every span, timestamps by the same repeated addition
/// the replay uses, stable-sorted by (ts, span): the order the replay
/// promises, packet order within a span kept by the stable sort.
std::vector<PacketRecord> reference_stream(std::span<const PacketSpan> spans) {
  struct Tagged {
    PacketRecord record;
    std::size_t span = 0;
  };
  std::vector<Tagged> all;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const PacketSpan& span = spans[s];
    double ts = span.start_sec;
    for (std::uint32_t k = 0; k < span.packets; ++k) {
      PacketRecord record;
      record.key = span.key;
      record.bytes = span.pkt_bytes;
      record.flags = (span.fin_last && k + 1 == span.packets) ? kPacketFin : 0;
      record.ts_sec = ts;
      all.push_back({record, s});
      ts += span.dt_sec;
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.record.ts_sec != b.record.ts_sec)
                       return a.record.ts_sec < b.record.ts_sec;
                     return a.span < b.span;
                   });
  std::vector<PacketRecord> out;
  out.reserve(all.size());
  for (const Tagged& t : all) out.push_back(t.record);
  return out;
}

std::uint64_t total_packets(std::span<const PacketSpan> spans) {
  std::uint64_t total = 0;
  for (const PacketSpan& span : spans) total += span.packets;
  return total;
}

std::vector<PacketRecord> replay(std::span<const PacketSpan> spans,
                                 std::size_t batch) {
  SyntheticLinkSource source(7, spans, total_packets(spans));
  std::vector<PacketRecord> out = drain(source, batch);
  EXPECT_TRUE(source.exhausted());
  return out;
}

/// Field-by-field equality, timestamps compared as bits.
::testing::AssertionResult same_records(const std::vector<PacketRecord>& got,
                                        const std::vector<PacketRecord>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " records, want " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PacketRecord& a = got[i];
    const PacketRecord& b = want[i];
    if (!(a.key == b.key) || a.bytes != b.bytes || a.flags != b.flags ||
        std::memcmp(&a.ts_sec, &b.ts_sec, sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "record " << i << " differs: ts " << a.ts_sec << " vs "
             << b.ts_sec << ", bytes " << a.bytes << " vs " << b.bytes
             << ", flags " << int{a.flags} << " vs " << int{b.flags};
  }
  return ::testing::AssertionSuccess();
}

constexpr std::size_t kBatchSizes[] = {1, 7, 256};

void expect_replay_matches_reference(const std::vector<PacketSpan>& spans) {
  const std::vector<PacketRecord> want = reference_stream(spans);
  for (const std::size_t batch : kBatchSizes)
    EXPECT_TRUE(same_records(replay(spans, batch), want))
        << "batch " << batch << ", " << spans.size() << " spans";
}

PacketSpan make_span(std::uint32_t id, double start, std::uint32_t packets,
                     double dt, bool fin_last = true) {
  PacketSpan span;
  span.key.src_ip = 0x0a000000u + id;
  span.key.dst_ip = 0x0b000000u + id;
  span.key.src_port = static_cast<std::uint16_t>(1000 + id);
  span.key.dst_port = 80;
  span.key.proto = fin_last ? 6 : 17;
  span.pkt_bytes = 40 + id;
  span.packets = packets;
  span.start_sec = start;
  span.dt_sec = dt;
  span.fin_last = fin_last;
  return span;
}

/// Spans sorted by start the way SyntheticTraffic sorts them.
void sort_by_start(std::vector<PacketSpan>& spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const PacketSpan& a, const PacketSpan& b) {
                     return a.start_sec < b.start_sec;
                   });
}

/// A random schedule over [0, interval): starts on a coarse grid (equal
/// starts across spans) or anywhere, dt of 0, on a grid (equal later
/// timestamps across spans) or evenly spread up to the interval end the
/// way the flow generator truncates durations.
std::vector<PacketSpan> random_schedule(Rng& rng) {
  constexpr double kInterval = 8.0;
  const auto count = static_cast<std::uint32_t>(rng.below(40));
  std::vector<PacketSpan> spans;
  for (std::uint32_t id = 0; id < count; ++id) {
    const double start = rng.bernoulli(0.5)
                             ? 0.5 * static_cast<double>(rng.below(16))
                             : rng.uniform(0.0, kInterval);
    const auto packets = static_cast<std::uint32_t>(
        rng.bernoulli(0.1) ? 1 + rng.below(400) : 1 + rng.below(12));
    double dt = 0.0;
    const std::uint64_t kind = rng.below(4);
    if (kind == 1) {
      dt = 0.125 * static_cast<double>(1 + rng.below(4));
    } else if (kind >= 2) {
      const double duration =
          std::min(rng.uniform(0.0, 2.0 * kInterval), kInterval - start);
      dt = duration / packets;
    }
    spans.push_back(make_span(id, start, packets, dt, rng.bernoulli(0.7)));
  }
  sort_by_start(spans);
  return spans;
}

TEST(SyntheticReplay, MatchesReferenceOnSeededSchedules) {
  Rng rng(20260419);
  for (int round = 0; round < 500; ++round) {
    SCOPED_TRACE(round);
    expect_replay_matches_reference(random_schedule(rng));
    if (HasFailure()) return;
  }
}

TEST(SyntheticReplay, EqualStartsAcrossSpans) {
  // Few spans at one start, and enough of them that their bucket takes
  // the large-bucket sort.
  for (const std::uint32_t count : {6u, 100u}) {
    std::vector<PacketSpan> spans;
    for (std::uint32_t id = 0; id < count; ++id)
      spans.push_back(make_span(id, 1.0, 5, 0.25 * (id % 3)));
    expect_replay_matches_reference(spans);
  }
}

TEST(SyntheticReplay, ZeroDtSpanEmitsAllItsPacketsAtOneTime) {
  const std::vector<PacketSpan> spans = {
      make_span(0, 0.5, 3, 0.5), make_span(1, 1.0, 50, 0.0),
      make_span(2, 1.0, 2, 0.0), make_span(3, 1.5, 4, 0.0)};
  const std::vector<PacketRecord> got = replay(spans, 7);
  expect_replay_matches_reference(spans);
  // Span 1's 50 packets all at t = 1.0, the FIN on the last of them.
  std::size_t at_one = 0, fins_at_one = 0;
  for (const PacketRecord& p : got) {
    if (p.ts_sec != 1.0 || p.key.src_ip != 0x0a000001u) continue;
    ++at_one;
    if (p.fin()) ++fins_at_one;
  }
  EXPECT_EQ(at_one, 50u);
  EXPECT_EQ(fins_at_one, 1u);
}

TEST(SyntheticReplay, SpansTruncatedAtTheIntervalEnd) {
  constexpr double kInterval = 2.0;
  std::vector<PacketSpan> spans;
  for (std::uint32_t id = 0; id < 20; ++id) {
    const double start = 0.1 * id;
    const std::uint32_t packets = 3 + id;
    spans.push_back(
        make_span(id, start, packets, (kInterval - start) / packets));
  }
  expect_replay_matches_reference(spans);
  for (const PacketRecord& p : replay(spans, 256))
    EXPECT_LT(p.ts_sec, kInterval);
}

TEST(SyntheticReplay, SingleSpan) {
  expect_replay_matches_reference({make_span(0, 0.25, 1, 0.0)});
  expect_replay_matches_reference({make_span(0, 0.25, 1000, 0.001)});
}

TEST(SyntheticReplay, EmptyLink) {
  SyntheticLinkSource source(3, {}, 0);
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(source.expected_packets(), 0u);
  PacketRecord buf[4];
  EXPECT_EQ(source.next_batch(buf, 4), 0u);
  EXPECT_TRUE(source.exhausted());
}

TEST(SyntheticReplay, GeneratedLinksMatchReference) {
  // Generated Pareto-sized flows, replayed through SyntheticTraffic.
  LineScenario s;
  SyntheticTraffic traffic(s.matrix, s.tm, s.options);
  for (const topo::LinkId link : {s.ab, s.bc}) {
    const std::span<const PacketSpan> spans = traffic.schedule(link);
    ASSERT_FALSE(spans.empty());
    const std::vector<PacketRecord> want = reference_stream(spans);
    EXPECT_EQ(want.size(), traffic.packets_on(link));
    auto source = traffic.source(link);
    EXPECT_EQ(source->expected_packets(), traffic.packets_on(link));
    EXPECT_TRUE(same_records(drain(*source), want));
    for (const std::size_t batch : kBatchSizes)
      EXPECT_TRUE(same_records(replay(spans, batch), want)) << batch;
  }
}

}  // namespace
}  // namespace netmon::ingest
