// The ingest pipeline's unit of work: one packet observation on one
// monitored link, reduced to exactly what the sampling + flow-cache
// stages consume (5-tuple, wire size, timestamp, FIN flag).
//
// PacketRecord is trivially copyable by design — sources write batches
// of them into the pipeline's task-local buffer as raw values, and a
// pcap trace (ingest/trace.hpp) round-trips through the same struct.
#pragma once

#include <cstdint>
#include <type_traits>

#include "traffic/flow.hpp"

namespace netmon::ingest {

/// Flag bits for PacketRecord::flags.
inline constexpr std::uint8_t kPacketFin = 0x01;

/// One packet observation, as offered to a link monitor.
struct PacketRecord {
  /// The 5-tuple the flow cache keys on.
  traffic::FlowKey key;
  /// Wire size in bytes.
  std::uint32_t bytes = 0;
  /// kPacketFin marks TCP FIN/RST (immediate flow expiry downstream).
  std::uint8_t flags = 0;
  /// Observation timestamp, seconds since the start of the replayed
  /// interval. Sources emit non-decreasing timestamps per link.
  double ts_sec = 0.0;

  bool fin() const noexcept { return (flags & kPacketFin) != 0; }
};

static_assert(std::is_trivially_copyable_v<PacketRecord>,
              "PacketRecord batches are copied as raw bytes");

}  // namespace netmon::ingest
