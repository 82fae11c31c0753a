// Wire codec: bit-exact round trips, and clean typed rejection of every
// truncated or corrupt frame.
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace netmon::serve {
namespace {

Request sample_request() {
  Request request;
  request.id = 0x0123456789abcdefULL;
  request.kind = RequestKind::kWhatIfBatch;
  request.tenant = "geant-prod";
  request.theta = 123456.789;
  request.default_alpha = 0.75;
  request.failed = {1, 7, 42};
  request.what_if = {{0}, {3, 4}, {}};
  request.thetas = {1e4, 2.5e5};
  request.warm_start = {0.0, 0.125, 1.0, 3.0e-7};
  request.deadline_ms = 1500;
  request.iteration_budget = 64;
  return request;
}

Response sample_response() {
  Response response;
  response.id = 99;
  response.kind = RequestKind::kAccuracyReport;
  response.status = ResponseStatus::kDeadlineExpired;
  response.error = "deadline expired mid-solve";
  response.tenant = "geant-prod";
  response.cache = CacheOutcome::kWarmStart;

  core::PlacementSolution solution;
  solution.rates = {0.0, 0.5, 0.0625, 1.0};
  solution.active_monitors = {1, 2, 3};
  core::OdReport od;
  od.od = {4, 9};
  od.expected_packets = 5000.0;
  od.rho_approx = 0.123456789012345;
  od.rho_exact = 0.123456789012344;
  od.utility = -3.5;
  od.predicted_accuracy = 0.987;
  od.monitored_links = {1, 3};
  solution.per_od = {od};
  solution.total_utility = -17.25;
  solution.budget_used = 99999.5;
  solution.status = opt::SolveStatus::kCancelled;
  solution.iterations = 12;
  solution.release_events = 2;
  solution.lambda = 1.25e-5;
  solution.certified_gap = 3.0e-13;
  solution.certified_upper_bound = -17.249999999999997;
  response.solutions = {solution};

  response.sweep = {{1e4, -20.0, 2e-5, 6}, {1e5, -10.0, 1e-5, 9}};
  response.accuracy = {{{4, 9}, 5000.0, 0.12, 0.11, 0.98}};
  response.batch_size = 3;
  response.queue_ms = 0.25;
  response.solve_ms = 17.5;
  return response;
}

void expect_equal(const Request& a, const Request& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.default_alpha, b.default_alpha);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.what_if, b.what_if);
  EXPECT_EQ(a.thetas, b.thetas);
  EXPECT_EQ(a.warm_start, b.warm_start);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.iteration_budget, b.iteration_budget);
}

void expect_equal(const core::PlacementSolution& a,
                  const core::PlacementSolution& b) {
  EXPECT_EQ(a.rates, b.rates);
  EXPECT_EQ(a.active_monitors, b.active_monitors);
  ASSERT_EQ(a.per_od.size(), b.per_od.size());
  for (std::size_t k = 0; k < a.per_od.size(); ++k) {
    EXPECT_EQ(a.per_od[k].od, b.per_od[k].od);
    EXPECT_EQ(a.per_od[k].expected_packets, b.per_od[k].expected_packets);
    EXPECT_EQ(a.per_od[k].rho_approx, b.per_od[k].rho_approx);
    EXPECT_EQ(a.per_od[k].rho_exact, b.per_od[k].rho_exact);
    EXPECT_EQ(a.per_od[k].utility, b.per_od[k].utility);
    EXPECT_EQ(a.per_od[k].predicted_accuracy,
              b.per_od[k].predicted_accuracy);
    EXPECT_EQ(a.per_od[k].monitored_links, b.per_od[k].monitored_links);
  }
  EXPECT_EQ(a.total_utility, b.total_utility);
  EXPECT_EQ(a.budget_used, b.budget_used);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.release_events, b.release_events);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.certified_gap, b.certified_gap);
  EXPECT_EQ(a.certified_upper_bound, b.certified_upper_bound);
}

void expect_equal(const Response& a, const Response& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.cache, b.cache);
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i)
    expect_equal(a.solutions[i], b.solutions[i]);
  EXPECT_EQ(a.sweep, b.sweep);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.queue_ms, b.queue_ms);
  EXPECT_EQ(a.solve_ms, b.solve_ms);
}

TEST(ServeWire, RequestRoundTripIsBitExact) {
  const Request original = sample_request();
  expect_equal(decode_request(encode_request(original)), original);
}

TEST(ServeWire, EmptyRequestRoundTrips) {
  expect_equal(decode_request(encode_request(Request{})), Request{});
}

TEST(ServeWire, ResponseRoundTripIsBitExact) {
  const Response original = sample_response();
  expect_equal(decode_response(encode_response(original)), original);
}

TEST(ServeWire, CertificateRoundTripsBitExactly) {
  Response response = sample_response();
  core::PlacementSolution& solution = response.solutions[0];
  for (const auto& [gap, bound] :
       {std::pair{0.0, 0.0}, std::pair{1e-300, -1e300},
        std::pair{std::numeric_limits<double>::denorm_min(),
                  std::numeric_limits<double>::infinity()}}) {
    solution.certified_gap = gap;
    solution.certified_upper_bound = bound;
    const core::PlacementSolution decoded =
        decode_response(encode_response(response)).solutions[0];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.certified_gap),
              std::bit_cast<std::uint64_t>(gap));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.certified_upper_bound),
              std::bit_cast<std::uint64_t>(bound));
  }
}

TEST(ServeWire, EverySolveStatusRoundTripsAndUnknownOnesAreRejected) {
  const auto last = static_cast<std::uint8_t>(opt::kLastSolveStatus);
  Response response = sample_response();
  for (std::uint8_t status = 0; status <= last; ++status) {
    response.solutions[0].status = static_cast<opt::SolveStatus>(status);
    EXPECT_EQ(decode_response(encode_response(response)).solutions[0].status,
              response.solutions[0].status)
        << "status " << int{status};
  }

  // Frames that differ only in the status differ in exactly its byte.
  response.solutions[0].status = opt::SolveStatus::kOptimal;
  const std::vector<std::uint8_t> good = encode_response(response);
  response.solutions[0].status = opt::kLastSolveStatus;
  const std::vector<std::uint8_t> other = encode_response(response);
  ASSERT_EQ(good.size(), other.size());
  std::vector<std::size_t> differ;
  for (std::size_t i = 0; i < good.size(); ++i)
    if (good[i] != other[i]) differ.push_back(i);
  ASSERT_EQ(differ.size(), 1u);
  for (const int bad : {last + 1, 0xff}) {
    std::vector<std::uint8_t> corrupt = good;
    corrupt[differ[0]] = static_cast<std::uint8_t>(bad);
    EXPECT_THROW(decode_response(corrupt), Error) << "status byte " << bad;
  }
}

TEST(ServeWire, DoublesSurviveBitExactlyIncludingSpecialValues) {
  Request request;
  request.kind = RequestKind::kThetaSweep;
  request.thetas = {std::numeric_limits<double>::denorm_min(),
                    std::numeric_limits<double>::max(),
                    -0.0,
                    std::numeric_limits<double>::infinity(),
                    0.1};  // 0.1 has no exact binary representation
  request.warm_start = {std::nan("")};
  const Request decoded = decode_request(encode_request(request));
  ASSERT_EQ(decoded.thetas.size(), request.thetas.size());
  for (std::size_t i = 0; i < request.thetas.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.thetas[i]),
              std::bit_cast<std::uint64_t>(request.thetas[i]));
  EXPECT_TRUE(std::isnan(decoded.warm_start[0]));
  EXPECT_TRUE(std::signbit(decoded.thetas[2]));
}

TEST(ServeWire, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> req = encode_request(sample_request());
  const std::vector<std::uint8_t> resp = encode_response(sample_response());
  for (std::size_t n = 0; n < req.size(); ++n) {
    EXPECT_THROW(decode_request(std::span(req.data(), n)), Error)
        << "prefix length " << n;
  }
  for (std::size_t n = 0; n < resp.size(); ++n) {
    EXPECT_THROW(decode_response(std::span(resp.data(), n)), Error)
        << "prefix length " << n;
  }
}

TEST(ServeWire, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> bytes = encode_request(sample_request());
  bytes.push_back(0);
  EXPECT_THROW(decode_request(bytes), Error);
}

TEST(ServeWire, CorruptEnvelopeIsRejected) {
  const std::vector<std::uint8_t> good = encode_request(sample_request());

  auto corrupt = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[at] = value;
    return bad;
  };
  EXPECT_THROW(decode_request(corrupt(0, 'X')), Error);   // magic 0
  EXPECT_THROW(decode_request(corrupt(1, 'X')), Error);   // magic 1
  EXPECT_THROW(decode_request(corrupt(2, 99)), Error);    // version
  EXPECT_THROW(decode_request(corrupt(3, 7)), Error);     // type
  // A request frame is not a response frame.
  EXPECT_THROW(decode_response(good), Error);
  // Lying length prefix.
  EXPECT_THROW(decode_request(corrupt(7, good[7] + 1)), Error);
}

TEST(ServeWire, AbsurdCountsAreRejectedBeforeAllocation) {
  // The failed-link count sits after id(8) + kind(1) + tenant(4, empty) +
  // theta(8) + alpha(8) in the body (offset 8 for the header).
  std::vector<std::uint8_t> bad = encode_request(Request{});
  const std::size_t count_at = 8 + 8 + 1 + 4 + 8 + 8;
  for (std::size_t i = 0; i < 4; ++i) bad[count_at + i] = 0xff;
  EXPECT_THROW(decode_request(bad), Error);

  // Same for the tenant string length (right after id + kind).
  std::vector<std::uint8_t> bad_string = encode_request(Request{});
  const std::size_t string_at = 8 + 8 + 1;
  for (std::size_t i = 0; i < 4; ++i) bad_string[string_at + i] = 0xff;
  EXPECT_THROW(decode_request(bad_string), Error);
}

TEST(ServeWire, FrameSizeSupportsStreamReassembly) {
  const std::vector<std::uint8_t> frame = encode_request(sample_request());

  // Fewer than 8 buffered bytes (the header): not decidable yet.
  EXPECT_EQ(frame_size(std::span(frame.data(), 0)), 0u);
  EXPECT_EQ(frame_size(std::span(frame.data(), 3)), 0u);
  EXPECT_EQ(frame_size(std::span(frame.data(), 7)), 0u);
  // With the header visible, the full frame size is known.
  EXPECT_EQ(frame_size(std::span(frame.data(), 8)), frame.size());
  EXPECT_EQ(frame_size(frame), frame.size());

  // Two frames back to back split correctly.
  std::vector<std::uint8_t> stream = frame;
  const std::vector<std::uint8_t> second =
      encode_response(sample_response());
  stream.insert(stream.end(), second.begin(), second.end());
  const std::size_t first_size = frame_size(stream);
  ASSERT_EQ(first_size, frame.size());
  expect_equal(decode_request(std::span(stream.data(), first_size)),
               sample_request());
  expect_equal(
      decode_response(std::span(stream).subspan(first_size)),
      sample_response());

  // A corrupt prefix fails fast instead of asking for gigabytes.
  std::vector<std::uint8_t> absurd = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(frame_size(absurd), Error);
  std::vector<std::uint8_t> tiny = {0, 0, 0, 2};
  EXPECT_THROW(frame_size(tiny), Error);
  // A header with a flipped magic/version byte is rejected as soon as
  // that byte is buffered, before the length field is even visible.
  std::vector<std::uint8_t> bad_magic = {kWireMagic0, 'X'};
  EXPECT_THROW(frame_size(bad_magic), Error);
  std::vector<std::uint8_t> bad_version = {kWireMagic0, kWireMagic1, 99};
  EXPECT_THROW(frame_size(bad_version), Error);
}

// --- earlier layouts are rejected ------------------------------------

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (const int shift : {24, 16, 8, 0})
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

// The v1 layout, built by hand: length prefix | 'N' 'M' | 1 | type |
// body (an id and a kind are enough to be rejected).
std::vector<std::uint8_t> v1_frame(std::uint8_t type) {
  const std::vector<std::uint8_t> body = {0, 0, 0, 0, 0, 0, 0, 77, 0};
  std::vector<std::uint8_t> out;
  put32(out, static_cast<std::uint32_t>(4 + body.size()));
  out.insert(out.end(), {kWireMagic0, kWireMagic1, 1, type});
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool throws_with(const std::function<void()>& fn, const std::string& what) {
  try {
    fn();
  } catch (const Error& e) {
    return std::string(e.what()).find(what) != std::string::npos;
  }
  return false;
}

TEST(ServeWire, V2FramesAreAnUnsupportedVersion) {
  // A v2 frame has the current envelope with version byte 2.
  std::vector<std::uint8_t> request = encode_request(sample_request());
  std::vector<std::uint8_t> response = encode_response(sample_response());
  request[2] = 2;
  response[2] = 2;
  EXPECT_TRUE(throws_with([&] { decode_request(request); },
                          "unsupported wire version"));
  EXPECT_TRUE(throws_with([&] { decode_response(response); },
                          "unsupported wire version"));
  EXPECT_TRUE(throws_with([&] { frame_size(std::span(request.data(), 3)); },
                          "unsupported wire version"));
}

TEST(ServeWire, V1FramesAreRejected) {
  // v1 starts with its length prefix, so no byte sits where the magic
  // must: the frame is rejected at its first byte.
  for (const std::uint8_t type : {kWireRequest, kWireResponse}) {
    const std::vector<std::uint8_t> frame = v1_frame(type);
    EXPECT_TRUE(throws_with([&] { decode_request(frame); }, "bad frame magic"));
    EXPECT_TRUE(
        throws_with([&] { decode_response(frame); }, "bad frame magic"));
    for (std::size_t n = 1; n <= frame.size(); ++n)
      EXPECT_THROW(frame_size(std::span(frame.data(), n)), Error)
          << "prefix length " << n;
  }
}

}  // namespace
}  // namespace netmon::serve
