// Zero-allocation steady state of the ingest hot path (same
// counting-allocator idiom as topo_presize_test.cpp): once the
// synthetic source's calendar storage is reserved and the flow table has
// seen every flow once, moving packets source -> sampler -> table
// performs no heap allocations at all.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "ingest/synthetic.hpp"
#include "netflow/flow_table.hpp"
#include "sampling/sampler.hpp"
#include "topo/graph.hpp"
#include "util/rng.hpp"

namespace {
std::size_t g_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace netmon {
namespace {

template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = g_alloc_count;
  fn();
  return g_alloc_count - before;
}

TEST(IngestZeroAlloc, SyntheticReplayAllocatesNothingAfterWarmup) {
  topo::Graph graph;
  const auto a = graph.add_node("A");
  const auto b = graph.add_node("B");
  graph.add_duplex(a, b, 1e9, 1.0);
  const routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 1}});
  ingest::SyntheticOptions options;
  options.flowgen.interval_sec = 30.0;
  const ingest::SyntheticTraffic traffic(matrix, {{{0, 1}, 400.0}},
                                         options);
  const auto link = *graph.find_link(0, 1);
  auto source = traffic.source(link);
  ASSERT_NE(source, nullptr);

  ingest::PacketRecord batch[256];
  ASSERT_GT(source->next_batch(batch, 256), 0u);  // build the calendar
  const std::size_t allocs = allocations_in([&] {
    while (!source->exhausted()) {
      if (source->next_batch(batch, 256) == 0) break;
    }
  });
  EXPECT_EQ(allocs, 0u) << "synthetic replay allocated in steady state";
}

TEST(IngestZeroAlloc, ZeroDurationSpanReplayAllocatesNothing) {
  // 100k packets at one instant: every packet lands in one calendar
  // bucket, which the replay drains without growing anything.
  ingest::PacketSpan span;
  span.packets = 100000;
  span.pkt_bytes = 64;
  span.start_sec = 1.5;
  span.fin_last = true;
  const std::vector<ingest::PacketSpan> spans = {span};
  ingest::SyntheticLinkSource source(0, spans, span.packets);

  ingest::PacketRecord batch[256];
  std::uint64_t delivered = source.next_batch(batch, 256);
  ASSERT_EQ(delivered, 256u);  // first batch: the calendar is built
  std::uint64_t fins = 0;
  const std::size_t allocs = allocations_in([&] {
    while (!source.exhausted()) {
      const std::size_t n = source.next_batch(batch, 256);
      if (n == 0) break;
      delivered += n;
      for (std::size_t i = 0; i < n; ++i)
        if (batch[i].fin()) ++fins;
    }
  });
  EXPECT_EQ(allocs, 0u) << "zero-duration replay allocated after warmup";
  EXPECT_EQ(delivered, 100000u);
  EXPECT_EQ(fins, 1u);
}

TEST(IngestZeroAlloc, HotPathSteadyStateAllocatesNothing) {
  // Full per-packet path: source batch -> Bernoulli sampler -> pre-sized
  // flow table on already-cached flows.
  topo::Graph graph;
  const auto a = graph.add_node("A");
  const auto b = graph.add_node("B");
  graph.add_duplex(a, b, 1e9, 1.0);
  const routing::RoutingMatrix matrix =
      routing::RoutingMatrix::single_path(graph, {{0, 1}});
  ingest::SyntheticOptions options;
  options.flowgen.interval_sec = 60.0;
  const ingest::SyntheticTraffic traffic(matrix, {{{0, 1}, 300.0}},
                                         options);
  const auto link = *graph.find_link(0, 1);
  auto source = traffic.source(link);
  ASSERT_NE(source, nullptr);

  sampling::LinkSampler sampler(sampling::SamplerKind::kBernoulli, 0.5,
                                Rng(42).substream(link)());
  // Timeouts beyond the interval: no expiry churn during the run, so
  // the export callback (which appends to a vector) never fires.
  netflow::FlowTableOptions table_options;
  table_options.idle_timeout_sec = 1e6;
  table_options.active_timeout_sec = 1e6;
  std::vector<netflow::FlowRecord> exported;
  exported.reserve(4096);
  netflow::FlowTable table(
      link, table_options,
      [&exported](const netflow::FlowRecord& r) { exported.push_back(r); });
  table.reserve(4096);

  // Warm-up pass: replay the whole interval once so every flow is
  // cached (FIN expiry still exports some; that's the warm-up's job).
  {
    auto warm = traffic.source(link);
    ingest::PacketRecord batch[256];
    while (!warm->exhausted()) {
      const std::size_t n = warm->next_batch(batch, 256);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i)
        table.observe(batch[i].key, batch[i].bytes, batch[i].ts_sec, false);
    }
  }
  ASSERT_GT(table.size(), 0u);

  // Steady state: same flows again (fresh source, same seed), sampled,
  // folded. Suppress FIN so no entry is erased and re-inserted: every
  // observe() hits an already-cached flow.
  ingest::PacketRecord batch[256];
  std::uint64_t observed = 0;
  const std::size_t allocs = allocations_in([&] {
    while (!source->exhausted()) {
      const std::size_t n = source->next_batch(batch, 256);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (!sampler.sample()) continue;
        table.observe(batch[i].key, batch[i].bytes, batch[i].ts_sec, false);
        ++observed;
      }
    }
  });
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(allocs, 0u) << "ingest hot path allocated in steady state";
}

}  // namespace
}  // namespace netmon
