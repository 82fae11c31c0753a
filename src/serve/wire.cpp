#include "serve/wire.hpp"

#include <bit>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace netmon::serve {

namespace {

// --- big-endian primitive writers -----------------------------------

void put8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v >> 32));
  put32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put64(out, std::bit_cast<std::uint64_t>(v));
}

void put_count(std::vector<std::uint8_t>& out, std::size_t n,
               const char* what) {
  NETMON_REQUIRE(n <= kWireMaxCount, what);
  put32(out, static_cast<std::uint32_t>(n));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_count(out, s.size(), "string too long for the wire");
  out.insert(out.end(), s.begin(), s.end());
}

void put_ids(std::vector<std::uint8_t>& out,
             const std::vector<topo::LinkId>& ids) {
  put_count(out, ids.size(), "too many link ids for the wire");
  for (topo::LinkId id : ids) put32(out, id);
}

void put_doubles(std::vector<std::uint8_t>& out,
                 const std::vector<double>& values) {
  put_count(out, values.size(), "too many doubles for the wire");
  for (double v : values) put_f64(out, v);
}

// --- bounds-checked reader ------------------------------------------

// Every read advances `at` and throws before touching memory past
// `bytes.size()`, so a truncated or lying length prefix can never cause
// an out-of-bounds access.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[at_++];
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v =
        (static_cast<std::uint32_t>(bytes_[at_]) << 24) |
        (static_cast<std::uint32_t>(bytes_[at_ + 1]) << 16) |
        (static_cast<std::uint32_t>(bytes_[at_ + 2]) << 8) |
        static_cast<std::uint32_t>(bytes_[at_ + 3]);
    at_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::uint32_t count(const char* what) {
    const std::uint32_t n = u32();
    NETMON_REQUIRE(n <= kWireMaxCount, what);
    // A count the remaining bytes cannot possibly satisfy (every element
    // is at least one byte) is corrupt; reject before reserving.
    NETMON_REQUIRE(n <= bytes_.size() - at_, what);
    return n;
  }

  std::string string() {
    const std::uint32_t n = count("corrupt string length");
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + at_), n);
    at_ += n;
    return s;
  }

  std::vector<topo::LinkId> ids(const char* what) {
    const std::uint32_t n = count(what);
    std::vector<topo::LinkId> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(u32());
    return out;
  }

  std::vector<double> doubles(const char* what) {
    const std::uint32_t n = count(what);
    std::vector<double> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(f64());
    return out;
  }

  void finish() const {
    NETMON_REQUIRE(at_ == bytes_.size(), "trailing bytes after frame body");
  }

 private:
  void need(std::size_t n) const {
    NETMON_REQUIRE(n <= bytes_.size() - at_, "truncated frame");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

// --- framing ---------------------------------------------------------

std::vector<std::uint8_t> frame(std::uint8_t type,
                                std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  NETMON_REQUIRE(body.size() <= kWireMaxBody, "frame too large");
  out.reserve(kWireHeaderSize + body.size());
  put8(out, kWireMagic0);
  put8(out, kWireMagic1);
  put8(out, kWireVersion);
  put8(out, type);
  put32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// Strips and checks the envelope of a complete frame; returns the body.
std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> bytes,
                                      std::uint8_t expected_type) {
  NETMON_REQUIRE(bytes.size() >= kWireHeaderSize,
                 "frame shorter than its envelope");
  NETMON_REQUIRE(bytes[0] == kWireMagic0 && bytes[1] == kWireMagic1,
                 "bad frame magic");
  NETMON_REQUIRE(bytes[2] == kWireVersion, "unsupported wire version");
  NETMON_REQUIRE(bytes[3] == expected_type, "unexpected frame type");
  Reader prefix(bytes.subspan(4, 4));
  const std::uint32_t body_len = prefix.u32();
  NETMON_REQUIRE(bytes.size() == kWireHeaderSize + body_len,
                 "frame size does not match its length prefix");
  return bytes.subspan(kWireHeaderSize);
}

RequestKind decode_kind(std::uint8_t raw) {
  NETMON_REQUIRE(raw <= static_cast<std::uint8_t>(
                            RequestKind::kAccuracyReport),
                 "unknown request kind");
  return static_cast<RequestKind>(raw);
}

void put_solution(std::vector<std::uint8_t>& out,
                  const core::PlacementSolution& solution) {
  put_doubles(out, solution.rates);
  put_ids(out, solution.active_monitors);
  put_count(out, solution.per_od.size(), "too many OD reports");
  for (const core::OdReport& od : solution.per_od) {
    put32(out, od.od.src);
    put32(out, od.od.dst);
    put_f64(out, od.expected_packets);
    put_f64(out, od.rho_approx);
    put_f64(out, od.rho_exact);
    put_f64(out, od.utility);
    put_f64(out, od.predicted_accuracy);
    put_ids(out, od.monitored_links);
  }
  put_f64(out, solution.total_utility);
  put_f64(out, solution.budget_used);
  put8(out, static_cast<std::uint8_t>(solution.status));
  put32(out, static_cast<std::uint32_t>(solution.iterations));
  put32(out, static_cast<std::uint32_t>(solution.release_events));
  put_f64(out, solution.lambda);
  put_f64(out, solution.certified_gap);
  put_f64(out, solution.certified_upper_bound);
}

core::PlacementSolution read_solution(Reader& in) {
  core::PlacementSolution solution;
  solution.rates = in.doubles("corrupt rate vector");
  solution.active_monitors = in.ids("corrupt monitor list");
  const std::uint32_t n_od = in.count("corrupt OD report count");
  solution.per_od.reserve(n_od);
  for (std::uint32_t i = 0; i < n_od; ++i) {
    core::OdReport od;
    od.od.src = in.u32();
    od.od.dst = in.u32();
    od.expected_packets = in.f64();
    od.rho_approx = in.f64();
    od.rho_exact = in.f64();
    od.utility = in.f64();
    od.predicted_accuracy = in.f64();
    od.monitored_links = in.ids("corrupt monitored-link list");
    solution.per_od.push_back(std::move(od));
  }
  solution.total_utility = in.f64();
  solution.budget_used = in.f64();
  const std::uint8_t status = in.u8();
  NETMON_REQUIRE(status <= static_cast<std::uint8_t>(opt::kLastSolveStatus),
                 "unknown solve status");
  solution.status = static_cast<opt::SolveStatus>(status);
  solution.iterations = static_cast<int>(in.u32());
  solution.release_events = static_cast<int>(in.u32());
  solution.lambda = in.f64();
  solution.certified_gap = in.f64();
  solution.certified_upper_bound = in.f64();
  return solution;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const Request& request) {
  std::vector<std::uint8_t> body;
  put64(body, request.id);
  put8(body, static_cast<std::uint8_t>(request.kind));
  put_string(body, request.tenant);
  put_f64(body, request.theta);
  put_f64(body, request.default_alpha);
  put_ids(body, request.failed);
  put_count(body, request.what_if.size(), "too many what-if scenarios");
  for (const auto& scenario : request.what_if) put_ids(body, scenario);
  put_doubles(body, request.thetas);
  put_doubles(body, request.warm_start);
  put32(body, request.deadline_ms);
  put32(body, request.iteration_budget);
  return frame(kWireRequest, std::move(body));
}

Request decode_request(std::span<const std::uint8_t> bytes) {
  Reader in(unframe(bytes, kWireRequest));
  Request request;
  request.id = in.u64();
  request.kind = decode_kind(in.u8());
  request.tenant = in.string();
  request.theta = in.f64();
  request.default_alpha = in.f64();
  request.failed = in.ids("corrupt failed-link list");
  const std::uint32_t n_scenarios = in.count("corrupt scenario count");
  request.what_if.reserve(n_scenarios);
  for (std::uint32_t i = 0; i < n_scenarios; ++i)
    request.what_if.push_back(in.ids("corrupt what-if scenario"));
  request.thetas = in.doubles("corrupt theta list");
  request.warm_start = in.doubles("corrupt warm-start vector");
  request.deadline_ms = in.u32();
  request.iteration_budget = in.u32();
  in.finish();
  return request;
}

std::vector<std::uint8_t> encode_response(const Response& response) {
  std::vector<std::uint8_t> body;
  put64(body, response.id);
  put8(body, static_cast<std::uint8_t>(response.kind));
  put8(body, static_cast<std::uint8_t>(response.status));
  put8(body, static_cast<std::uint8_t>(response.cache));
  put_string(body, response.tenant);
  put_string(body, response.error);
  put_count(body, response.solutions.size(), "too many solutions");
  for (const core::PlacementSolution& s : response.solutions)
    put_solution(body, s);
  put_count(body, response.sweep.size(), "too many sweep points");
  for (const ThetaPoint& p : response.sweep) {
    put_f64(body, p.theta);
    put_f64(body, p.total_utility);
    put_f64(body, p.lambda);
    put32(body, p.active_monitors);
  }
  put_count(body, response.accuracy.size(), "too many accuracy rows");
  for (const OdAccuracy& row : response.accuracy) {
    put32(body, row.od.src);
    put32(body, row.od.dst);
    put_f64(body, row.expected_packets);
    put_f64(body, row.rho_approx);
    put_f64(body, row.rho_exact);
    put_f64(body, row.predicted_accuracy);
  }
  put32(body, response.batch_size);
  put_f64(body, response.queue_ms);
  put_f64(body, response.solve_ms);
  return frame(kWireResponse, std::move(body));
}

Response decode_response(std::span<const std::uint8_t> bytes) {
  Reader in(unframe(bytes, kWireResponse));
  Response response;
  response.id = in.u64();
  response.kind = decode_kind(in.u8());
  const std::uint8_t status = in.u8();
  NETMON_REQUIRE(
      status <= static_cast<std::uint8_t>(ResponseStatus::kRejectedQuota),
      "unknown response status");
  response.status = static_cast<ResponseStatus>(status);
  const std::uint8_t cache = in.u8();
  NETMON_REQUIRE(cache <= static_cast<std::uint8_t>(CacheOutcome::kWarmStart),
                 "unknown cache outcome");
  response.cache = static_cast<CacheOutcome>(cache);
  response.tenant = in.string();
  response.error = in.string();
  const std::uint32_t n_solutions = in.count("corrupt solution count");
  response.solutions.reserve(n_solutions);
  for (std::uint32_t i = 0; i < n_solutions; ++i)
    response.solutions.push_back(read_solution(in));
  const std::uint32_t n_sweep = in.count("corrupt sweep count");
  response.sweep.reserve(n_sweep);
  for (std::uint32_t i = 0; i < n_sweep; ++i) {
    ThetaPoint p;
    p.theta = in.f64();
    p.total_utility = in.f64();
    p.lambda = in.f64();
    p.active_monitors = in.u32();
    response.sweep.push_back(p);
  }
  const std::uint32_t n_accuracy = in.count("corrupt accuracy count");
  response.accuracy.reserve(n_accuracy);
  for (std::uint32_t i = 0; i < n_accuracy; ++i) {
    OdAccuracy row;
    row.od.src = in.u32();
    row.od.dst = in.u32();
    row.expected_packets = in.f64();
    row.rho_approx = in.f64();
    row.rho_exact = in.f64();
    row.predicted_accuracy = in.f64();
    response.accuracy.push_back(row);
  }
  response.batch_size = in.u32();
  response.queue_ms = in.f64();
  response.solve_ms = in.f64();
  in.finish();
  return response;
}

std::size_t frame_size(std::span<const std::uint8_t> buffer) {
  // Validate the envelope byte-by-byte as it arrives so a corrupt stream
  // is rejected at the earliest byte that cannot be valid.
  if (buffer.size() >= 1)
    NETMON_REQUIRE(buffer[0] == kWireMagic0, "bad frame magic");
  if (buffer.size() >= 2)
    NETMON_REQUIRE(buffer[1] == kWireMagic1, "bad frame magic");
  if (buffer.size() >= 3)
    NETMON_REQUIRE(buffer[2] == kWireVersion, "unsupported wire version");
  if (buffer.size() >= 4)
    NETMON_REQUIRE(buffer[3] == kWireRequest || buffer[3] == kWireResponse,
                   "unexpected frame type");
  if (buffer.size() < kWireHeaderSize) return 0;
  Reader prefix(buffer.subspan(4, 4));
  const std::uint32_t body_len = prefix.u32();
  NETMON_REQUIRE(body_len <= kWireMaxBody, "frame length prefix is absurd");
  return kWireHeaderSize + static_cast<std::size_t>(body_len);
}

}  // namespace netmon::serve
