// Binary wire format for the placement query service.
//
// Frames are self-describing byte strings a stream transport (TCP, a
// pipe, a file of captured queries) can reassemble without parsing
// bodies. The frame puts the protocol magic FIRST so a TCP peer
// validates who it is talking to before trusting any length field:
//
//   'N' 'M' | u8 version (=3) | u8 type (1=request, 2=response)
//   | u32 body length | body
//
// Only the current version decodes. Bodies carry the tenant routing
// fields (Request::tenant, Response::tenant / Response::cache), and each
// solution carries its optimality certificate (certified_gap,
// certified_upper_bound). Earlier layouts are rejected: a v2 frame (no
// certificate) as an unsupported version, a length-first v1 frame as bad
// magic.
//
// All integers are big-endian (network byte order, same convention as
// netflow/v5_codec); doubles travel as the big-endian bytes of their
// IEEE-754 bit pattern, so a decode(encode(x)) round trip is bit-exact —
// the serving layer's determinism guarantee survives the wire. Decoders
// are defensive: truncated, corrupt, or absurdly-sized frames throw
// netmon::Error, never read out of bounds, and never allocate
// attacker-controlled amounts of memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/request.hpp"

namespace netmon::serve {

/// Frame magic + versions.
inline constexpr std::uint8_t kWireMagic0 = 'N';
inline constexpr std::uint8_t kWireMagic1 = 'M';
/// Current frame layout: magic-first, tenant-aware, certified solutions.
inline constexpr std::uint8_t kWireVersion = 3;
/// Frame type bytes.
inline constexpr std::uint8_t kWireRequest = 1;
inline constexpr std::uint8_t kWireResponse = 2;
/// Upper bound on any element count in a frame (links, scenarios, OD
/// rows, string bytes). Corrupt length fields beyond this are rejected
/// before any allocation.
inline constexpr std::uint32_t kWireMaxCount = 1u << 22;
/// Upper bound on a frame body: a handful of scalar fields plus at most
/// a few count-bounded arrays of 24-byte elements. Length prefixes
/// beyond this are a corrupt stream, not a large frame.
inline constexpr std::uint64_t kWireMaxBody = 64 + 24ULL * kWireMaxCount;
/// Header size: magic(2) + version(1) + type(1) + body length(4).
inline constexpr std::size_t kWireHeaderSize = 8;

/// Encodes one request/response as a single frame.
std::vector<std::uint8_t> encode_request(const Request& request);
std::vector<std::uint8_t> encode_response(const Response& response);

/// Decodes one complete frame. Throws netmon::Error on truncation, bad
/// magic/version, wrong frame type, or corrupt field values.
Request decode_request(std::span<const std::uint8_t> frame);
Response decode_response(std::span<const std::uint8_t> frame);

/// Stream reassembly helper: the total size of the frame starting at
/// `buffer[0]`, or 0 when fewer than its 8 header bytes are buffered.
/// Throws netmon::Error as soon as the buffered prefix cannot start any
/// valid frame (bad magic/version, absurd length), so transports fail
/// fast instead of waiting for 4 GiB.
std::size_t frame_size(std::span<const std::uint8_t> buffer);

}  // namespace netmon::serve
