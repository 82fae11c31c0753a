// The TCP transport's contract: responses over real sockets are
// bit-identical to loopback (both feed the same Service), corrupt peers
// are rejected and disconnected, idle connections close on the injected
// clock, and stop() drains gracefully.
#include "serve/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "obs/clock.hpp"
#include "serve/loopback.hpp"
#include "serve/wire.hpp"
#include "tenant/service.hpp"

namespace netmon::serve {
namespace {

using namespace std::chrono_literals;

/// A single-model deployment: the line model as the registry's one
/// (hence default) tenant. The solve cache is off, so the loopback half
/// of a bit-identity check solves instead of replaying the TCP answer.
struct LineModel {
  tenant::TenantRegistry registry;

  LineModel() {
    tenant::TenantModel model;
    model.graph = test::line_graph();
    model.task.ods = {{0, 3}, {1, 3}};
    model.task.expected_packets = {5000.0, 3000.0};
    model.loads.assign(model.graph.link_count(), 1000.0);
    model.problem.theta = 50000.0;
    registry.publish("line", std::move(model));
  }

  std::unique_ptr<tenant::TenantService> server(
      tenant::TenantServiceOptions options = {}) {
    options.cache.max_entries = 0;
    return std::make_unique<tenant::TenantService>(registry, options);
  }
};

struct ServeTcpTest : ::testing::Test {
  LineModel model;
};

/// Spins until `predicate` holds or ~2 s pass. The transport's I/O loop
/// polls every few ms, so state changes land quickly but asynchronously.
template <typename Predicate>
bool eventually(Predicate&& predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

/// A representative fleet of every request kind.
std::vector<Request> request_fleet() {
  std::vector<Request> fleet;
  Request solve;
  solve.id = 1;
  fleet.push_back(solve);

  Request sweep;
  sweep.id = 2;
  sweep.kind = RequestKind::kThetaSweep;
  sweep.thetas = {20000.0, 50000.0, 80000.0};
  fleet.push_back(sweep);

  Request what_if;
  what_if.id = 3;
  what_if.kind = RequestKind::kWhatIfBatch;
  what_if.what_if = {{1}, {3}};
  fleet.push_back(what_if);

  Request accuracy;
  accuracy.id = 4;
  accuracy.kind = RequestKind::kAccuracyReport;
  fleet.push_back(accuracy);

  Request failed;
  failed.id = 5;
  failed.failed = {3};
  fleet.push_back(failed);
  return fleet;
}

void expect_identical(const Response& a, const Response& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].rates, b.solutions[i].rates);
    EXPECT_EQ(a.solutions[i].total_utility, b.solutions[i].total_utility);
    EXPECT_EQ(a.solutions[i].lambda, b.solutions[i].lambda);
    EXPECT_EQ(a.solutions[i].iterations, b.solutions[i].iterations);
    EXPECT_EQ(a.solutions[i].active_monitors, b.solutions[i].active_monitors);
    EXPECT_EQ(a.solutions[i].certified_gap, b.solutions[i].certified_gap);
    EXPECT_EQ(a.solutions[i].certified_upper_bound,
              b.solutions[i].certified_upper_bound);
  }
  EXPECT_EQ(a.sweep, b.sweep);
  ASSERT_EQ(a.accuracy.size(), b.accuracy.size());
  for (std::size_t i = 0; i < a.accuracy.size(); ++i)
    EXPECT_EQ(a.accuracy[i], b.accuracy[i]);
}

TEST_F(ServeTcpTest, SolveRoundTripsOverRealSockets) {
  auto srv = model.server();
  TcpServer tcp(*srv);
  ASSERT_GT(tcp.port(), 0);

  TcpClient client("127.0.0.1", tcp.port());
  Request request;
  request.id = 42;
  const Response response = client.call(std::move(request));
  EXPECT_EQ(response.id, 42u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.solutions.size(), 1u);
  EXPECT_FALSE(response.solutions[0].rates.empty());
}

TEST_F(ServeTcpTest, TcpAndLoopbackAnswerBitIdentically) {
  // One service, both transports: the acceptance criterion is that the
  // transport never leaks into the answer.
  auto srv = model.server();
  TcpServer tcp(*srv);
  TcpClient tcp_client("127.0.0.1", tcp.port());
  LoopbackTransport loopback(*srv, /*via_wire=*/true);

  for (const Request& request : request_fleet()) {
    Request over_tcp = request;
    Request over_loopback = request;
    over_loopback.id = request.id + 100;  // distinct in-flight ids
    const Response a = tcp_client.call(std::move(over_tcp));
    Response b = loopback.call(std::move(over_loopback));
    b.id = a.id;
    expect_identical(a, b);
  }
}

TEST_F(ServeTcpTest, TcpAnswerCarriesTheInProcessCertificate) {
  auto srv = model.server();
  TcpServer tcp(*srv);
  TcpClient tcp_client("127.0.0.1", tcp.port());
  LoopbackTransport in_process(*srv);

  for (const Request& request : request_fleet()) {
    Request over_tcp = request;
    Request direct = request;
    direct.id = request.id + 100;
    const Response a = tcp_client.call(std::move(over_tcp));
    Response b = in_process.call(std::move(direct));
    b.id = a.id;
    expect_identical(a, b);
    for (const core::PlacementSolution& s : a.solutions) {
      EXPECT_GE(s.certified_upper_bound, s.total_utility) << request.id;
      EXPECT_NEAR(s.certified_upper_bound, s.total_utility + s.certified_gap,
                  1e-9 * std::abs(s.total_utility))
          << request.id;
    }
  }
}

TEST_F(ServeTcpTest, ManyInFlightRequestsAllComplete) {
  auto srv = model.server();
  TcpServer tcp(*srv);
  TcpClient client("127.0.0.1", tcp.port());

  std::vector<std::future<Response>> futures;
  for (std::uint64_t id = 1; id <= 32; ++id) {
    Request request;
    request.id = id;
    request.theta = 30000.0 + static_cast<double>(id);
    futures.push_back(client.send(std::move(request)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    EXPECT_EQ(response.id, i + 1);
    EXPECT_EQ(response.status, ResponseStatus::kOk);
  }
}

TEST_F(ServeTcpTest, MultipleClientsShareOneServer) {
  auto srv = model.server();
  TcpServer tcp(*srv);

  std::vector<std::unique_ptr<TcpClient>> clients;
  std::vector<std::future<Response>> futures;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(
        std::make_unique<TcpClient>("127.0.0.1", tcp.port()));
    for (std::uint64_t id = 1; id <= 4; ++id) {
      Request request;
      request.id = id;  // ids only need to be unique per connection
      futures.push_back(clients.back()->send(std::move(request)));
    }
  }
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, ResponseStatus::kOk);
}

TEST_F(ServeTcpTest, CorruptBytesCloseTheConnection) {
  auto srv = model.server();
  TcpServer tcp(*srv);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_TRUE(eventually([&] { return tcp.connections() == 1; }));

  // 'X' can start neither a v2 frame (magic is 'N') nor a legacy length
  // prefix (high byte capped at 0x06): rejected at the first byte.
  const char garbage[] = "XXXXXXXX";
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));

  // The server closes the connection: recv sees EOF.
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  ::close(fd);
  EXPECT_TRUE(eventually([&] { return tcp.connections() == 0; }));
  EXPECT_EQ(tcp.protocol_errors(), 1u);
}

TEST_F(ServeTcpTest, VersionMismatchIsRejected) {
  auto srv = model.server();
  TcpServer tcp(*srv);

  // A well-formed frame claiming wire version 99 must be rejected (the
  // mismatch-reject path) and the connection closed.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::vector<std::uint8_t> frame = encode_request(Request{});
  frame[2] = 99;  // version byte
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  EXPECT_GE(tcp.protocol_errors(), 1u);
}

TEST_F(ServeTcpTest, ConnectionsBeyondTheCapAreRefused) {
  auto srv = model.server();
  TcpServerOptions options;
  options.max_connections = 1;
  TcpServer tcp(*srv, options);

  TcpClient first("127.0.0.1", tcp.port());
  Request request;
  request.id = 1;
  EXPECT_EQ(first.call(std::move(request)).status, ResponseStatus::kOk);

  // The second connection completes the TCP handshake (backlog) but the
  // server closes it at accept: its requests come back typed, never hang.
  TcpClient second("127.0.0.1", tcp.port());
  Request rejected;
  rejected.id = 1;
  const Response response = second.call(std::move(rejected));
  EXPECT_EQ(response.status, ResponseStatus::kShutdown);
  EXPECT_TRUE(eventually([&] { return !second.connected(); }));
}

TEST_F(ServeTcpTest, IdleConnectionsCloseOnTheInjectedClock) {
  obs::ManualClock clock;
  auto srv = model.server();
  TcpServerOptions options;
  options.idle_timeout = 5s;
  options.clock = &clock;
  TcpServer tcp(*srv, options);

  TcpClient client("127.0.0.1", tcp.port());
  ASSERT_TRUE(eventually([&] { return tcp.connections() == 1; }));

  // Below the timeout: stays open.
  clock.advance(2s);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(tcp.connections(), 1u);

  // Past it: the idle scan closes the connection, the client sees EOF.
  clock.advance(4s);
  EXPECT_TRUE(eventually([&] { return tcp.connections() == 0; }));
  EXPECT_TRUE(eventually([&] { return !client.connected(); }));
}

TEST_F(ServeTcpTest, StopDrainsInFlightRequestsBeforeClosing) {
  auto srv = model.server();
  TcpServer tcp(*srv);
  TcpClient client("127.0.0.1", tcp.port());

  std::vector<std::future<Response>> futures;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    Request request;
    request.id = id;
    futures.push_back(client.send(std::move(request)));
  }
  // Give the I/O thread a beat to read the frames, then stop: every
  // submitted request must still be answered through the drain.
  std::this_thread::sleep_for(50ms);
  tcp.stop();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    const Response response = future.get();
    // Either served before the drain finished, or typed kShutdown when
    // the connection closed mid-flight — never a hang, never silence.
    EXPECT_TRUE(response.status == ResponseStatus::kOk ||
                response.status == ResponseStatus::kShutdown);
  }
}

TEST_F(ServeTcpTest, StopWithAParkedDispatcherTimesOutTheDrain) {
  // A paused service never answers, so the drain must give up at
  // drain_timeout and close the connection; the client's future
  // completes typed.
  tenant::TenantServiceOptions service_options;
  service_options.start_paused = true;
  auto srv = model.server(service_options);
  TcpServerOptions options;
  options.drain_timeout = 100ms;
  TcpServer tcp(*srv, options);
  TcpClient client("127.0.0.1", tcp.port());

  Request request;
  request.id = 1;
  std::future<Response> future = client.send(std::move(request));
  std::this_thread::sleep_for(50ms);
  tcp.stop();
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get().status, ResponseStatus::kShutdown);
  srv->stop();
}

}  // namespace
}  // namespace netmon::serve
