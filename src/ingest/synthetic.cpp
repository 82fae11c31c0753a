#include "ingest/synthetic.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace netmon::ingest {

namespace {

/// Deterministic per-(flow, link) coin for fractional (ECMP) routing
/// entries: mixes the flow-key hash with the link id so the same flow
/// resolves consistently on every run.
bool flow_crosses(const traffic::FlowKey& key, topo::LinkId link,
                  double fraction) noexcept {
  if (fraction >= 1.0) return true;
  std::uint64_t h = traffic::FlowKeyHash{}(key);
  h ^= (static_cast<std::uint64_t>(link) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return u < fraction;
}

}  // namespace

SyntheticLinkSource::SyntheticLinkSource(topo::LinkId link,
                                         std::span<const PacketSpan> spans,
                                         std::uint64_t packets)
    : link_(link), spans_(spans), packets_(packets) {
  live_.reserve(spans.size());
  head_.reserve(bucket_count(packets));
  next_.reserve(spans.size());
  due_.reserve(spans.size());
}

std::uint32_t SyntheticLinkSource::bucket_count(
    std::uint64_t packets) noexcept {
  // About four packets per bucket; the cap bounds the calendar at 16 MB.
  constexpr std::uint64_t kPacketsPerBucket = 4;
  constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 22;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(packets / kPacketsPerBucket, 1, kMaxBuckets));
}

std::uint32_t SyntheticLinkSource::bucket_of(double ts) const noexcept {
  // Monotone in ts: a subtraction, a positive scale and a floor all
  // preserve order, and so does the clamp, which also takes overflow
  // and NaN to the last bucket.
  const double x = (ts - t0_) * inv_width_;
  return x < last_bucket_ ? static_cast<std::uint32_t>(x) : buckets_ - 1;
}

void SyntheticLinkSource::build() {
  built_ = true;
  std::uint64_t total = 0;
  double t0 = spans_.empty() ? 0.0 : spans_.front().start_sec;
  double t_end = t0;
  for (const PacketSpan& span : spans_) {
    if (span.packets == 0) continue;
    total += span.packets;
    t0 = std::min(t0, span.start_sec);
    // The range only sizes the buckets: packets past t_end clamp into
    // the last one, so the closed form need not match the replayed sums.
    t_end = std::max(t_end, span.start_sec + span.dt_sec * (span.packets - 1));
  }
  t0_ = t0;
  buckets_ = bucket_count(total);
  last_bucket_ = static_cast<double>(buckets_ - 1);
  inv_width_ = t_end > t0 ? buckets_ / (t_end - t0) : 0.0;
  live_.resize(spans_.size());
  head_.assign(buckets_, kNone);
  next_.resize(spans_.size());
  due_.resize(spans_.size());
  load_next_bucket();
}

void SyntheticLinkSource::load_next_bucket() {
  while (next_bucket_ < buckets_) {
    const std::uint32_t b = next_bucket_++;
    std::size_t n = 0;
    for (std::uint32_t s = head_[b]; s != kNone; s = next_[s])
      due_[n++] = Due{live_[s].ts, s};
    for (; next_span_ < spans_.size() &&
           bucket_of(spans_[next_span_].start_sec) <= b;
         ++next_span_) {
      const PacketSpan& span = spans_[next_span_];
      if (span.packets == 0) continue;
      const auto s = static_cast<std::uint32_t>(next_span_);
      const std::uint8_t fin = span.fin_last ? kPacketFin : 0;
      live_[s] = Live{span.key, span.pkt_bytes, span.packets, span.start_sec,
                      span.dt_sec, fin};
      due_[n++] = Due{span.start_sec, s};
    }
    if (n == 0) continue;
    std::sort(due_.begin(), due_.begin() + static_cast<long>(n),
              [](const Due& a, const Due& b) { return later(a, b); });
    bucket_ = b;
    due_count_ = n;
    return;
  }
}

std::size_t SyntheticLinkSource::next_batch(PacketRecord* out,
                                            std::size_t max) {
  if (!built_) build();
  std::size_t n = 0;
  while (n < max && due_count_ != 0) {
    const std::uint32_t s = due_[--due_count_].span;
    Live& live = live_[s];
    PacketRecord& record = out[n++];
    record.key = live.key;
    record.bytes = live.bytes;
    record.flags = live.left == 1 ? live.fin : 0;
    record.ts_sec = live.ts;
    if (--live.left != 0) {
      live.ts += live.dt;
      const std::uint32_t b = bucket_of(live.ts);
      if (b <= bucket_) {
        // Still due in this bucket: insertion step, latest first.
        const Due due{live.ts, s};
        std::size_t i = due_count_;
        for (; i > 0 && later(due, due_[i - 1]); --i) due_[i] = due_[i - 1];
        due_[i] = due;
        ++due_count_;
      } else {
        next_[s] = head_[b];
        head_[b] = s;
      }
    }
    if (due_count_ == 0) load_next_bucket();
  }
  return n;
}

SyntheticTraffic::SyntheticTraffic(const routing::RoutingMatrix& matrix,
                                   const traffic::TrafficMatrix& tm,
                                   SyntheticOptions options)
    : options_(options),
      spans_(matrix.link_count()),
      packets_(matrix.link_count(), 0) {
  NETMON_REQUIRE(tm.size() == matrix.od_count(),
                 "traffic matrix rows must match routing-matrix ODs");
  Rng rng(options_.seed);
  flows_ = traffic::generate_all_flows(rng, tm, options_.flowgen);

  for (std::size_t k = 0; k < flows_.size(); ++k) {
    const auto row = matrix.row(k);
    for (const traffic::Flow& flow : flows_[k]) {
      PacketSpan span;
      span.key = flow.key;
      span.packets = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(flow.packets, 0xffffffffULL));
      if (span.packets == 0) continue;
      span.pkt_bytes = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(flow.bytes / flow.packets,
                                  options_.min_packet_bytes));
      span.start_sec = flow.start_sec;
      span.dt_sec = flow.end_sec > flow.start_sec
                        ? (flow.end_sec - flow.start_sec) / span.packets
                        : 0.0;
      span.fin_last = flow.key.proto == 6;  // TCP closes with FIN
      for (const auto& [column, fraction] : row) {
        const auto link = static_cast<topo::LinkId>(column);
        if (!flow_crosses(flow.key, link, fraction)) continue;
        spans_[link].push_back(span);
        packets_[link] += span.packets;
      }
    }
  }
  for (auto& link_spans : spans_) {
    std::stable_sort(link_spans.begin(), link_spans.end(),
                     [](const PacketSpan& a, const PacketSpan& b) {
                       return a.start_sec < b.start_sec;
                     });
  }
}

std::unique_ptr<PacketSource> SyntheticTraffic::source(
    topo::LinkId link) const {
  const std::span<const PacketSpan> spans = schedule(link);  // range check
  return std::make_unique<SyntheticLinkSource>(link, spans, packets_[link]);
}

std::span<const PacketSpan> SyntheticTraffic::schedule(
    topo::LinkId link) const {
  NETMON_REQUIRE(link < spans_.size(), "link id out of range");
  return spans_[link];
}

std::vector<std::unique_ptr<PacketSource>> SyntheticTraffic::sources(
    const sampling::RateVector& rates) const {
  std::vector<std::unique_ptr<PacketSource>> out;
  for (std::size_t link = 0; link < spans_.size(); ++link) {
    if (link >= rates.size() || rates[link] <= 0.0) continue;
    if (spans_[link].empty()) continue;
    out.push_back(source(static_cast<topo::LinkId>(link)));
  }
  return out;
}

std::uint64_t SyntheticTraffic::packets_on(topo::LinkId link) const {
  NETMON_REQUIRE(link < spans_.size(), "link id out of range");
  return packets_[link];
}

}  // namespace netmon::ingest
