// PacketSource: the capture abstraction at the head of the ingest
// pipeline (the "sniffer" of CoMo's capture process).
//
// A source is bound to one monitored link and hands out batches of
// PacketRecords in non-decreasing timestamp order. Two implementations
// ship: the deterministic synthetic generator driven by the traffic
// models (ingest/synthetic.hpp) and the pcap trace reader with optional
// clock-paced replay (ingest/trace.hpp). Each source is driven by exactly
// one pipeline task at a time, so implementations need no internal
// locking.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ingest/packet.hpp"
#include "topo/graph.hpp"

namespace netmon::ingest {

/// A stream of packets observed on one link.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// The monitored link this source feeds.
  virtual topo::LinkId link() const noexcept = 0;

  /// Fills up to `max` records (timestamps non-decreasing across calls)
  /// and returns the count. 0 means either end-of-stream (exhausted())
  /// or, for paced sources, "nothing due yet" — the pipeline tells the
  /// two apart by exhausted() and revisits a paced source after its
  /// task's other sources, yielding rather than spinning.
  virtual std::size_t next_batch(PacketRecord* out, std::size_t max) = 0;

  /// True once the stream can never produce again.
  virtual bool exhausted() const noexcept = 0;

  /// Packets the source expects to deliver in total; 0 = unknown. The
  /// pipeline balances sources across its tasks by it.
  virtual std::uint64_t expected_packets() const noexcept { return 0; }
};

}  // namespace netmon::ingest
