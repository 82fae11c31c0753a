// Deterministic synthetic packet sources driven by the traffic models.
//
// SyntheticTraffic expands a traffic matrix (gravity / fan-out, any
// TrafficMatrix) into per-OD flow populations via traffic::
// generate_flows, routes each flow over the routing matrix, and builds
// one per-link *packet schedule*: the time-ordered stream of packets
// crossing that link during one measurement interval. A
// SyntheticLinkSource then replays a link's schedule as PacketRecord
// batches from a calendar queue (Brown, CACM 1988) — O(1) amortized per
// packet and allocation-free after the first batch, which is what lets
// one pipeline task replay a link of a few hundred thousand packets in a
// few milliseconds.
//
// Determinism: the flow populations are a pure function of (seed,
// traffic matrix) — generate_all_flows derives one Rng stream per OD —
// and each link's schedule replays in a fixed order, so the packet
// stream a link's monitor sees is identical across runs, task counts
// and pool sizes. Fractional (ECMP) routing
// entries are resolved per (flow, link) by hashing the flow key: a flow
// either crosses a link or it does not, reproducibly.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ingest/source.hpp"
#include "routing/routing_matrix.hpp"
#include "sampling/effective_rate.hpp"
#include "traffic/flow_generator.hpp"

namespace netmon::ingest {

/// Synthetic generation knobs.
struct SyntheticOptions {
  /// Flow population shape (interval length, Pareto sizes).
  traffic::FlowGenOptions flowgen;
  /// Seed for the flow populations (per-OD streams derive from it).
  std::uint64_t seed = 42;
  /// Floor on the derived per-packet wire size.
  std::uint32_t min_packet_bytes = 40;
};

/// One flow's appearance on one link: `packets` packets at start_sec,
/// start_sec + dt_sec, start_sec + dt_sec + dt_sec, ... (each time the
/// previous one plus dt_sec, in double), FIN on the last TCP packet.
struct PacketSpan {
  traffic::FlowKey key;
  std::uint32_t pkt_bytes = 0;
  std::uint32_t packets = 0;
  double start_sec = 0.0;
  double dt_sec = 0.0;
  bool fin_last = false;
};

/// Replays one link's schedule (spans sorted by start_sec, dt_sec >= 0)
/// as the packets of every span in (timestamp, span index, packet order)
/// order. The link's time range is cut into a calendar of buckets of
/// about four packets each; an active span waits on an intrusive list
/// in the bucket of its next packet, and a bucket's turn sorts just the
/// spans due there. bucket_of is monotone in the timestamp, so a later
/// bucket only ever holds strictly later packets and the output order
/// is exact. Storage, O(spans + buckets), is reserved at construction
/// and filled by the first next_batch (on the calling task's thread);
/// replay allocates nothing. `spans` is borrowed.
class SyntheticLinkSource final : public PacketSource {
 public:
  /// `packets` is the schedule's packet count: it is reported by
  /// expected_packets() and sizes the calendar's storage, which is
  /// reserved here and filled on the first next_batch.
  SyntheticLinkSource(topo::LinkId link, std::span<const PacketSpan> spans,
                      std::uint64_t packets);

  topo::LinkId link() const noexcept override { return link_; }
  std::size_t next_batch(PacketRecord* out, std::size_t max) override;
  bool exhausted() const noexcept override {
    return built_ ? due_count_ == 0 : spans_.empty();
  }
  std::uint64_t expected_packets() const noexcept override { return packets_; }

 private:
  /// An active span: everything its next packet needs, in one place.
  struct Live {
    traffic::FlowKey key;
    std::uint32_t bytes = 0;
    std::uint32_t left = 0;  // packets not yet emitted
    double ts = 0.0;         // the next packet's time
    double dt = 0.0;
    std::uint8_t fin = 0;    // flags of the span's last packet
  };
  /// A packet due in the current bucket.
  struct Due {
    double ts = 0.0;
    std::uint32_t span = 0;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Latest first: (ts, span) descending, so a sorted bucket hands out
  /// its next packet from the back.
  static bool later(const Due& a, const Due& b) noexcept {
    if (a.ts != b.ts) return a.ts > b.ts;
    return a.span > b.span;
  }

  static std::uint32_t bucket_count(std::uint64_t packets) noexcept;
  void build();
  std::uint32_t bucket_of(double ts) const noexcept;
  /// Loads the next non-empty bucket into due_ (called with due_ empty;
  /// it stays empty when no bucket is left).
  void load_next_bucket();

  topo::LinkId link_;
  std::span<const PacketSpan> spans_;
  std::uint64_t packets_;
  bool built_ = false;
  double t0_ = 0.0;
  double inv_width_ = 0.0;
  double last_bucket_ = 0.0;
  std::uint32_t buckets_ = 0;
  std::uint32_t next_bucket_ = 0;
  std::uint32_t bucket_ = 0;  // the bucket due_ holds
  std::size_t next_span_ = 0;
  /// Per span, from its start on.
  std::vector<Live> live_;
  /// Head span of each bucket's waiting list (kNone = empty), and each
  /// waiting span's successor on its list.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> next_;
  /// The current bucket's packets, sorted latest-first so the next one
  /// is at the back.
  std::vector<Due> due_;
  std::size_t due_count_ = 0;
};

/// One interval of network-wide synthetic traffic, pre-routed into
/// per-link packet schedules. Keep it alive while sources built from it
/// are running (they borrow the schedules).
class SyntheticTraffic {
 public:
  SyntheticTraffic(const routing::RoutingMatrix& matrix,
                   const traffic::TrafficMatrix& tm,
                   SyntheticOptions options = {});

  /// A replay source for one link (empty schedule = empty source).
  std::unique_ptr<PacketSource> source(topo::LinkId link) const;

  /// Sources for every link with rates[link] > 0 and a non-empty
  /// schedule — the monitored-link set of the pipeline.
  std::vector<std::unique_ptr<PacketSource>> sources(
      const sampling::RateVector& rates) const;

  /// The generated flow populations, one row per traffic-matrix entry
  /// (ground truth for accuracy checks).
  const std::vector<std::vector<traffic::Flow>>& flows() const noexcept {
    return flows_;
  }

  /// A link's schedule: its spans sorted by start_sec.
  std::span<const PacketSpan> schedule(topo::LinkId link) const;

  /// Total packets scheduled on a link across the interval.
  std::uint64_t packets_on(topo::LinkId link) const;

  double interval_sec() const noexcept { return options_.flowgen.interval_sec; }
  std::size_t link_count() const noexcept { return spans_.size(); }

 private:
  SyntheticOptions options_;
  std::vector<std::vector<traffic::Flow>> flows_;
  /// Per-link schedules sorted by start_sec, indexed by link id.
  std::vector<std::vector<PacketSpan>> spans_;
  /// Per-link packet totals, indexed by link id.
  std::vector<std::uint64_t> packets_;
};

}  // namespace netmon::ingest
