// serve_miss and serve_fleet: placement queries over TCP.
//
// One generator thread drives a serve::TcpServer in front of a
// tenant::TenantService (2 worker threads) over two TCP connections,
// multiplexing sends and receives with poll() and speaking the public
// wire codec. Each workload runs a warm-up, an open-loop phase at a
// nominal Poisson rate (latency timed from each request's due time, so a
// stall is charged to every request it delays), and a closed-loop phase
// with 64 requests in flight whose completions per window give the peak
// rate.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "netmon.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

using namespace netmon;

constexpr int kConnections = 2;
constexpr std::size_t kClosedInFlight = 64;

// ---- client side of the wire ------------------------------------------------

/// Nonblocking client connections to one server. Requests go round-robin
/// over the connections; responses are reassembled with
/// serve::frame_size and decoded with serve::decode_response.
class WireClient {
 public:
  using OnResponse =
      std::function<void(serve::Response&&, std::int64_t recv_ns,
                         std::int64_t decode_ns)>;

  WireClient(std::uint16_t port, int connections) {
    for (int c = 0; c < connections; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw Error("socket() failed");
      conns_.push_back(Conn{fd, {}, 0, {}, 0});
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0)
        throw Error(std::string("connect() failed: ") + std::strerror(errno));
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
  }
  ~WireClient() {
    for (const Conn& conn : conns_) ::close(conn.fd);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Encodes `request` onto the next connection and writes what the
  /// socket takes now. Returns the encode time.
  std::int64_t send(const serve::Request& request) {
    const std::int64_t start = now_ns();
    const std::vector<std::uint8_t> frame = serve::encode_request(request);
    const std::int64_t encoded = now_ns();
    Conn& conn = conns_[next_++ % conns_.size()];
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    flush(conn);
    ++in_flight_;
    return encoded - start;
  }

  /// Waits for socket activity until `deadline_ns` at the latest, then
  /// writes pending bytes and hands every complete response to `on`.
  void pump(std::int64_t deadline_ns, const OnResponse& on) {
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns_[c].out_off < conns_[c].out.size() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
    const timespec timeout{static_cast<time_t>(wait / 1000000000),
                           static_cast<long>(wait % 1000000000)};
    if (::ppoll(fds, conns_.size(), &timeout, nullptr) < 0 && errno != EINTR)
      throw Error("ppoll() failed");
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents & (POLLERR | POLLHUP | POLLNVAL))
        throw Error("server closed a connection");
      if (fds[c].revents & POLLOUT) flush(conns_[c]);
      if (fds[c].revents & POLLIN) receive(conns_[c], on);
    }
  }

  std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  struct Conn {
    int fd;
    std::vector<std::uint8_t> out;
    std::size_t out_off;
    std::vector<std::uint8_t> in;
    std::size_t in_off;
  };

  static void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw Error("send() failed");
      }
      conn.out_off += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  void receive(Conn& conn, const OnResponse& on) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n == 0) throw Error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw Error("recv() failed");
      }
      conn.in.insert(conn.in.end(), buf, buf + n);
    }
    const std::int64_t recv_ns = now_ns();
    for (;;) {
      const std::span<const std::uint8_t> rest(conn.in.data() + conn.in_off,
                                               conn.in.size() - conn.in_off);
      const std::size_t size = serve::frame_size(rest);
      if (size == 0 || rest.size() < size) break;
      const std::int64_t start = now_ns();
      serve::Response response = serve::decode_response(rest.first(size));
      const std::int64_t decode_ns = now_ns() - start;
      conn.in_off += size;
      --in_flight_;
      on(std::move(response), recv_ns, decode_ns);
    }
    if (conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
    }
  }

  std::vector<Conn> conns_;
  std::size_t next_ = 0;
  std::size_t in_flight_ = 0;
};

// ---- load shapes ------------------------------------------------------------

/// Client-side record of one open-loop request.
struct Sample {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t recv = 0;  // 0 = unanswered
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  std::uint32_t batch = 0;
  serve::ResponseStatus status = serve::ResponseStatus::kOk;
  serve::CacheOutcome cache = serve::CacheOutcome::kNone;
  double latency_ms() const { return ns_to_ms(recv - due); }
};

/// Hands a workload each request of a phase (by index) and each answer.
struct Traffic {
  std::function<serve::Request(std::size_t index)> request;
  std::function<void(std::size_t index, const serve::Response&)> answer;
};

/// Poisson arrival offsets (ns) at `rate` per second over `seconds`.
std::vector<std::int64_t> poisson_arrivals(Rng& rng, double rate,
                                           double seconds) {
  std::vector<std::int64_t> due;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= seconds) return due;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
}

constexpr std::int64_t kDrainNs = 10'000'000'000;

/// Open loop: request i is due at start + due[i], whatever the server is
/// doing; latency runs from due to decoded response.
std::vector<Sample> open_loop(WireClient& client,
                              const std::vector<std::int64_t>& due,
                              std::uint64_t id_base, const Traffic& traffic) {
  std::vector<Sample> samples(due.size());
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t drain_deadline =
      start + (due.empty() ? 0 : due.back()) + kDrainNs;
  const WireClient::OnResponse on = [&](serve::Response&& response,
                                        std::int64_t recv_ns,
                                        std::int64_t decode_ns) {
    const std::size_t i = response.id - id_base;
    if (response.id < id_base || i >= samples.size() || samples[i].recv != 0)
      throw Error("response with an unknown id");
    Sample& s = samples[i];
    s.recv = recv_ns;
    s.decode_ns = decode_ns;
    s.queue_ms = response.queue_ms;
    s.solve_ms = response.solve_ms;
    s.batch = response.batch_size;
    s.status = response.status;
    s.cache = response.cache;
    traffic.answer(i, response);
  };
  std::size_t next = 0;
  for (;;) {
    std::int64_t now = now_ns();
    while (next < due.size() && start + due[next] <= now) {
      serve::Request request = traffic.request(next);
      request.id = id_base + next;
      Sample& s = samples[next];
      s.due = start + due[next];
      s.encode_ns = client.send(request);
      s.sent = now_ns();
      ++next;
      now = now_ns();
    }
    if (next == due.size() &&
        (client.in_flight() == 0 || now > drain_deadline))
      break;
    client.pump(next < due.size() ? start + due[next] : drain_deadline, on);
  }
  return samples;
}

struct ClosedLoopResult {
  std::vector<double> window_rps;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t not_ok = 0;
};

/// Closed loop: kClosedInFlight requests outstanding, each answer
/// immediately replaced. Completions are counted per window after a
/// warm-up; the windows' rates are the peak-rate samples.
ClosedLoopResult closed_loop(WireClient& client, double warm_s,
                             double window_s, int windows,
                             std::uint64_t id_base, const Traffic& traffic) {
  ClosedLoopResult result;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(windows), 0);
  const std::int64_t start = now_ns();
  const std::int64_t measure_from = start + static_cast<std::int64_t>(warm_s * 1e9);
  const std::int64_t window_ns = static_cast<std::int64_t>(window_s * 1e9);
  const std::int64_t end = measure_from + windows * window_ns;
  std::uint64_t next = 0;
  const auto send_next = [&] {
    serve::Request request = traffic.request(next);
    request.id = id_base + next;
    client.send(request);
    ++next;
    ++result.sent;
  };
  const WireClient::OnResponse on = [&](serve::Response&& response,
                                        std::int64_t recv_ns, std::int64_t) {
    if (response.id < id_base || response.id - id_base >= next)
      throw Error("response with an unknown id");
    ++result.answered;
    if (response.status != serve::ResponseStatus::kOk) ++result.not_ok;
    traffic.answer(response.id - id_base, response);
    if (recv_ns >= measure_from && recv_ns < end)
      ++counts[static_cast<std::size_t>((recv_ns - measure_from) / window_ns)];
    if (recv_ns < end) send_next();
  };
  for (std::size_t i = 0; i < kClosedInFlight; ++i) send_next();
  while (client.in_flight() > 0 && now_ns() < end + kDrainNs)
    client.pump(end + kDrainNs, on);
  for (std::uint64_t c : counts)
    result.window_rps.push_back(static_cast<double>(c) / window_s);
  return result;
}

// ---- checks -----------------------------------------------------------------

/// 64-bit FNV-1a over the bit patterns of everything a response answers
/// (the wire carries exactly these fields): equal hashes are the
/// bit-identity check between answers.
std::uint64_t answer_hash(const serve::Response& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto bytes = [&h](const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  for (const core::PlacementSolution& s : r.solutions) {
    bytes(s.rates.data(), s.rates.size() * sizeof(double));
    bytes(&s.total_utility, sizeof(double));
    bytes(&s.lambda, sizeof(double));
    bytes(&s.iterations, sizeof(int));
    bytes(s.active_monitors.data(),
          s.active_monitors.size() * sizeof(topo::LinkId));
  }
  for (const serve::ThetaPoint& p : r.sweep) {
    bytes(&p.theta, sizeof(double));
    bytes(&p.total_utility, sizeof(double));
    bytes(&p.lambda, sizeof(double));
    bytes(&p.active_monitors, sizeof(std::uint32_t));
  }
  for (const serve::OdAccuracy& a : r.accuracy) {
    bytes(&a.expected_packets, sizeof(double));
    bytes(&a.rho_approx, sizeof(double));
    bytes(&a.rho_exact, sizeof(double));
    bytes(&a.predicted_accuracy, sizeof(double));
  }
  return h;
}

// ---- the serving stack ------------------------------------------------------

using Tenant = std::pair<std::string, tenant::TenantModel>;

/// Registry, service, TCP server, and the generator's connections, plus
/// the tenant models first published.
struct Stack {
  std::vector<Tenant> tenants;
  tenant::TenantRegistry registry;
  std::unique_ptr<tenant::TenantService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::unique_ptr<WireClient> client;

  Stack(std::vector<Tenant> models, std::size_t cache_entries)
      : tenants(std::move(models)) {
    for (const auto& [name, model] : tenants) registry.publish(name, model);
    tenant::TenantServiceOptions options;
    options.threads = 2;
    options.queue_capacity = 256;  // > kClosedInFlight: no queue-full rejects
    options.cache.max_entries = cache_entries;
    service = std::make_unique<tenant::TenantService>(registry, options);
    server = std::make_unique<serve::TcpServer>(*service);
    client = std::make_unique<WireClient>(server->port(), kConnections);
  }
  ~Stack() {
    client.reset();
    if (server) server->stop();
    if (service) service->stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

tenant::TenantModel geant_model() {
  const core::GeantScenario scenario = core::make_geant_scenario();
  tenant::TenantModel model;
  model.graph = scenario.net.graph;
  model.task = scenario.task;
  model.loads = scenario.loads;
  return model;
}

/// The Abilene research network with its own task and gravity loads.
tenant::TenantModel abilene_model() {
  const topo::AbileneNetwork abilene = topo::make_abilene();
  tenant::TenantModel model;
  model.graph = abilene.graph;
  model.task.interval_sec = 300.0;
  traffic::TrafficMatrix demands = traffic::gravity_matrix(
      abilene.graph, {.total_pkt_per_sec = 6.0e5, .min_mass = 1e-12});
  for (const auto& [name, rate] : topo::abilene_task_rates()) {
    const topo::NodeId dst = *abilene.graph.find_node(name);
    model.task.ods.push_back({abilene.customer, dst});
    model.task.expected_packets.push_back(rate * model.task.interval_sec);
    demands.push_back({{abilene.customer, dst}, rate});
  }
  model.loads = traffic::link_loads(abilene.graph, demands);
  model.problem.theta = 50000.0;
  return model;
}

/// The open loop runs in kSlices slices, each on a freshly built stack
/// after its own warm-up. Where the scheduler puts a stack's threads holds
/// for the stack's life: one stack's p50 moved by up to 20% between runs,
/// and a run that samples five stacks and takes the median halved the
/// spread of serve_miss's p50 between runs.
constexpr std::size_t kSlices = 5;

/// Phase lengths derived from --seconds.
struct Phases {
  double warm_s;   // warm-up of each slice's stack
  double slice_s;  // measured open loop of each slice
  double closed_warm_s, window_s;
  int windows = 4;
};

Phases phases(const RunConfig& config) {
  // A fresh stack runs slower for its first seconds, so each warms up for
  // 2 s, whatever --seconds is. Even so, the second slice's p90 came out
  // two to four times the others' in most runs, for a cause not found;
  // the median over slices sets one such slice aside.
  const double s = config.smoke ? 1.0 : config.seconds;
  return {config.smoke ? 0.1 : 2.0, 0.5 * s / kSlices, 0.05 * s, 0.075 * s};
}

/// Seeded arrivals of one slice: its stack's warm-up, then its measured
/// open loop.
struct SliceArrivals {
  std::vector<std::int64_t> warm, open;
};

/// Arrivals of every slice at `rate`.
std::vector<SliceArrivals> slice_arrivals(Rng& rng, double rate,
                                          const Phases& p) {
  std::vector<SliceArrivals> slices;
  for (std::size_t k = 0; k < kSlices; ++k)
    slices.push_back({poisson_arrivals(rng, rate, p.warm_s),
                      poisson_arrivals(rng, rate, p.slice_s)});
  return slices;
}

/// Latency, layer shares and cache mix of the open-loop slices. p50_ms
/// and p90_ms are medians over the slices of each slice's percentile, so
/// a stall of the machine in one slice does not move them either.
void open_loop_metrics(const std::vector<std::vector<Sample>>& slices,
                       Outcome& out, Tracer& tracer) {
  std::vector<double> latency, queue, solve, transport, encode_us, decode_us;
  std::vector<double> slice_p50, slice_p90;
  double total = 0.0, wire = 0.0, queue_sum = 0.0, solve_sum = 0.0;
  std::size_t hits = 0, warm = 0, miss = 0, bad_stages = 0;
  std::vector<double> batch;
  double late_ms = 0.0;  // how far behind schedule the generator sent
  for (const std::vector<Sample>& samples : slices) {
    std::vector<double> slice_latency;
    for (const Sample& s : samples) {
      if (s.recv == 0 || s.status != serve::ResponseStatus::kOk) continue;
      const double ms = s.latency_ms();
      const double codec = ns_to_ms(s.encode_ns + s.decode_ns);
      latency.push_back(ms);
      slice_latency.push_back(ms);
      total += ms;
      wire += codec;
      queue_sum += s.queue_ms;
      solve_sum += s.solve_ms;
      queue.push_back(s.queue_ms);
      encode_us.push_back(s.encode_ns * 1e-3);
      decode_us.push_back(s.decode_ns * 1e-3);
      transport.push_back(ms - s.queue_ms - s.solve_ms - codec);
      late_ms = std::max(late_ms, ns_to_ms(s.sent - s.encode_ns - s.due));
      if (s.queue_ms + s.solve_ms > ms) ++bad_stages;
      if (s.cache == serve::CacheOutcome::kHit) {
        ++hits;
      } else {
        solve.push_back(s.solve_ms);
        batch.push_back(s.batch);
        (s.cache == serve::CacheOutcome::kWarmStart ? warm : miss)++;
      }
      // The sample table holds every boundary this side of the wire, so
      // the spans are written from it after the run, off the hot path.
      const std::uint64_t trace_id = tracer.next_id();
      const std::uint64_t root = tracer.next_id();
      tracer.record({trace_id, root, 0, "serve.request", s.due, s.recv});
      tracer.span(trace_id, root, "serve.wire.encode", s.sent - s.encode_ns,
                  s.sent);
      tracer.span(trace_id, root, "serve.wire.decode", s.recv,
                  s.recv + s.decode_ns);
    }
    if (slice_latency.empty()) continue;  // counted failed already
    slice_p50.push_back(quantile(slice_latency, 0.5));
    slice_p90.push_back(quantile(slice_latency, 0.9));
  }
  out.check(bad_stages == 0,
            "queue_ms + solve_ms <= client latency for every request (" +
                std::to_string(bad_stages) + " violations)");
  std::printf("open loop: %zu answered; slice p50s", latency.size());
  for (double v : slice_p50) std::printf(" %.3f", v);
  std::printf(", p90s");
  for (double v : slice_p90) std::printf(" %.3f", v);
  std::printf(" ms\n  all slices p50 %.3f p90 %.3f p99 %.3f (%zu beyond)"
              " p99.9 %.3f ms (%zu beyond)\n",
              quantile(latency, 0.5), quantile(latency, 0.9),
              quantile(latency, 0.99), latency.size() / 100,
              quantile(latency, 0.999), latency.size() / 1000);
  std::printf("  queue p50 %.3f p90 %.3f ms;", quantile(queue, 0.5),
              quantile(queue, 0.9));
  if (!solve.empty())
    std::printf(" solve p50 %.3f p90 %.3f ms;", quantile(solve, 0.5),
                quantile(solve, 0.9));
  std::printf(" transport p50 %.3f ms; encode p50 %.2f us, decode p50 %.2f"
              " us\n",
              quantile(transport, 0.5), quantile(encode_us, 0.5),
              quantile(decode_us, 0.5));
  std::printf("  generator late by at most %.3f ms\n", late_ms);
  const double n = static_cast<double>(latency.size());
  auto& m = out.metrics;
  m["p50_ms"] = quantile(slice_p50, 0.5);
  m["p90_ms"] = quantile(slice_p90, 0.5);
  m["serve.wire_pct"] = 100.0 * wire / total;
  m["serve.queue_pct"] = 100.0 * queue_sum / total;
  m["core.solve_pct"] = 100.0 * solve_sum / total;
  m["serve.transport_pct"] =
      100.0 * (total - wire - queue_sum - solve_sum) / total;
  if (!batch.empty()) m["serve.batch_size_mean"] = mean_of(batch);
  m["tenant.hit_ratio"] = hits / n;
  m["tenant.warm_ratio"] = warm / n;
  m["tenant.miss_ratio"] = miss / n;
}

/// Every open-loop request answered kOk.
void check_answered(const std::vector<Sample>& samples, const char* phase,
                    Outcome& out) {
  std::size_t bad = 0;
  for (const Sample& s : samples)
    if (s.recv == 0 || s.status != serve::ResponseStatus::kOk) ++bad;
  out.attempted += samples.size();
  out.failed += bad;
  if (bad != 0)
    std::fprintf(stderr, "CHECK FAILED: %zu %s requests unanswered or not"
                 " kOk\n", bad, phase);
}

/// Every closed-loop request answered kOk; the median window is the peak.
void closed_loop_metrics(const ClosedLoopResult& closed, Outcome& out) {
  out.attempted += closed.sent;
  out.failed += closed.not_ok + (closed.sent - closed.answered);
  if (closed.not_ok != 0 || closed.sent != closed.answered)
    std::fprintf(stderr, "CHECK FAILED: closed loop %llu not kOk, %llu"
                 " unanswered\n",
                 static_cast<unsigned long long>(closed.not_ok),
                 static_cast<unsigned long long>(closed.sent - closed.answered));
  std::printf("closed loop: %zu in flight, window rates", kClosedInFlight);
  for (double rps : closed.window_rps) std::printf(" %.0f", rps);
  std::printf(" req/s\n");
  out.metrics["serve.peak_rps"] = quantile(closed.window_rps, 0.5);
}

/// Iterations of the solves behind the open-loop answers, split by
/// whether the cache donated a warm start.
struct SolverTally {
  std::vector<double> cold, warm, releases;

  void add(const serve::Response& r) {
    if (r.status != serve::ResponseStatus::kOk ||
        r.cache == serve::CacheOutcome::kHit)
      return;
    for (const core::PlacementSolution& s : r.solutions) {
      (r.cache == serve::CacheOutcome::kWarmStart ? warm : cold)
          .push_back(s.iterations);
      releases.push_back(s.release_events);
    }
  }
  /// A kind of solve that never ran is left out, so it reads 0.
  void write(Outcome& out) const {
    if (!cold.empty()) out.metrics["opt.iters_cold_mean"] = mean_of(cold);
    if (!warm.empty()) out.metrics["opt.iters_warm_mean"] = mean_of(warm);
    if (!releases.empty())
      out.metrics["opt.release_events"] = mean_of(releases);
  }
};

}  // namespace

// ---- serve_miss -------------------------------------------------------------

Outcome run_serve_miss(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  out.connections = kConnections;
  const Phases p = phases(config);
  const double rate = 2000.0;

  const auto make_stack = [] {
    return std::make_unique<Stack>(
        std::vector<Tenant>{{"geant", geant_model()}}, 0);
  };
  std::unique_ptr<Stack> stack =
      timed_setup(15, &out.metrics["setup_s"], make_stack);

  // Inputs: arrivals and one distinct theta per request, from the seed.
  const std::int64_t gen_start = now_ns();
  Rng rng(config.seed);
  const std::vector<SliceArrivals> arrivals = slice_arrivals(rng, rate, p);
  std::vector<double> thetas(200000);
  for (double& theta : thetas) theta = 50000.0 + 150000.0 * rng.uniform();
  out.metrics["traffic.input_gen_ms"] = ns_to_ms(now_ns() - gen_start);

  std::size_t theta_cursor = 0;
  const auto next_theta = [&] {
    return thetas[theta_cursor++ % thetas.size()];
  };
  std::size_t slice = 0;
  std::vector<std::vector<serve::Request>> open_requests(kSlices);
  // Every 100th open-loop request of each slice, with its answer's hash.
  std::vector<std::pair<serve::Request, std::uint64_t>> kept;
  SolverTally tally;
  const Traffic warm_traffic{
      [&](std::size_t) {
        serve::Request r;
        r.tenant = "geant";
        r.theta = next_theta();
        return r;
      },
      [](std::size_t, const serve::Response&) {}};
  const Traffic open_traffic{
      [&](std::size_t) {  // requests come in index order
        serve::Request r;
        r.tenant = "geant";
        r.theta = next_theta();
        open_requests[slice].push_back(r);
        return r;
      },
      [&](std::size_t i, const serve::Response& r) {
        if (i % 100 == 0)
          kept.emplace_back(open_requests[slice][i], answer_hash(r));
        tally.add(r);
      }};

  // Each stack is fresh, so its counters hold exactly its own work.
  std::uint64_t solves = 0;
  std::vector<std::vector<Sample>> samples;
  for (slice = 0; slice < kSlices; ++slice) {
    if (slice > 0) {
      solves += stack->service->solver_invocations();
      stack = make_stack();
    }
    check_answered(
        open_loop(*stack->client, arrivals[slice].warm, 1, warm_traffic),
        "warm-up", out);
    samples.push_back(
        open_loop(*stack->client, arrivals[slice].open, 1'000'000,
                  open_traffic));
    check_answered(samples.back(), "open-loop", out);
  }
  tenant::TenantService& service = *stack->service;
  const ClosedLoopResult closed =
      closed_loop(*stack->client, p.closed_warm_s, p.window_s, p.windows,
                  10'000'000, warm_traffic);
  closed_loop_metrics(closed, out);
  solves += service.solver_invocations();

  // Every 100th TCP answer equals an in-process submit of its request.
  for (const auto& [request, tcp_hash] : kept) {
    const serve::Response local = service.submit(request).get();
    out.check(local.status == serve::ResponseStatus::kOk &&
                  answer_hash(local) == tcp_hash,
              "TCP answer at theta " + std::to_string(request.theta) +
                  " equals the in-process answer");
  }

  open_loop_metrics(samples, out, tracer);
  tally.write(out);
  out.metrics["core.solver_invocations"] = static_cast<double>(solves);
  return out;
}

// ---- serve_fleet ------------------------------------------------------------

namespace {

/// One cache key of the fleet catalogue.
struct Key {
  serve::Request request;
  std::size_t solves = 1;  // problems the service solves on a miss
};

/// Links whose single failure leaves every task OD routable.
std::vector<topo::LinkId> safe_failures(const tenant::TenantModel& model) {
  std::vector<topo::LinkId> safe;
  for (topo::LinkId link = 0; link < model.graph.link_count(); ++link) {
    core::ProblemOptions options = model.problem;
    options.failed.insert(link);
    try {
      core::PlacementProblem problem(model.graph, model.task, model.loads,
                                     options);
      safe.push_back(link);
    } catch (const std::exception&) {
    }
  }
  return safe;
}

/// Request kinds of the catalogue, in the order of KindGroups.
enum Kind { kSolveKind, kAccuracyKind, kWhatIfKind, kSweepKind, kKinds };

/// One tenant's keys (indices into the key list), grouped by Kind.
using KindGroups = std::array<std::vector<std::uint32_t>, kKinds>;

/// 160 keys per tenant: 60% kSolve, 20% kAccuracyReport, 15% kWhatIfBatch
/// (4 single-link failures), 5% kThetaSweep (8 thetas), with thetas on a
/// log grid from half to twice the tenant's default budget. The mix is a
/// synthetic assumption, not measured operator traffic; the two tenants'
/// 320 keys overflow the default 256-entry cache, so the tail evicts.
/// Each kind's keys come back in a seeded order.
KindGroups add_catalogue(const std::string& name,
                         const tenant::TenantModel& model, Rng& rng,
                         std::vector<Key>& keys) {
  const double base = model.problem.theta;
  const auto grid = [base](std::size_t i, std::size_t n) {
    return base * std::exp2(2.0 * static_cast<double>(i) /
                                static_cast<double>(n - 1) -
                            1.0);
  };
  const std::vector<topo::LinkId> safe = safe_failures(model);
  if (safe.size() < 4) throw Error("too few safe failure links for " + name);
  const auto draw_theta = [&] { return grid(rng() % 64, 64); };
  KindGroups groups;
  const auto add = [&](Kind kind, serve::Request request, std::size_t solves) {
    request.tenant = name;
    groups[kind].push_back(static_cast<std::uint32_t>(keys.size()));
    keys.push_back({std::move(request), solves});
  };
  for (std::size_t i = 0; i < 96; ++i) {
    serve::Request r;
    r.theta = grid(i, 96);
    add(kSolveKind, r, 1);
  }
  for (std::size_t i = 0; i < 32; ++i) {
    serve::Request r;
    r.kind = serve::RequestKind::kAccuracyReport;
    r.theta = grid(i, 32);
    add(kAccuracyKind, r, 1);
  }
  for (std::size_t i = 0; i < 24; ++i) {
    serve::Request r;
    r.kind = serve::RequestKind::kWhatIfBatch;
    r.theta = grid(i, 24);
    for (int f = 0; f < 4; ++f) r.what_if.push_back({safe[rng() % safe.size()]});
    add(kWhatIfKind, r, 4);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    serve::Request r;
    r.kind = serve::RequestKind::kThetaSweep;
    for (int t = 0; t < 8; ++t) r.thetas.push_back(draw_theta());
    add(kSweepKind, r, 8);
  }
  for (std::vector<std::uint32_t>& group : groups)
    for (std::size_t i = group.size() - 1; i > 0; --i)
      std::swap(group[i], group[rng() % (i + 1)]);
  return groups;
}

/// Kinds of one tenant's successive popularity ranks: 12 kSolve, 4
/// kAccuracyReport, 3 kWhatIfBatch and 1 kThetaSweep in every 20.
constexpr Kind kRankKinds[20] = {
    kSolveKind,  kAccuracyKind, kSolveKind, kWhatIfKind,   kSolveKind,
    kSolveKind,  kAccuracyKind, kSolveKind, kSweepKind,    kSolveKind,
    kWhatIfKind, kSolveKind,    kAccuracyKind, kSolveKind, kSolveKind,
    kWhatIfKind, kSolveKind,    kAccuracyKind, kSolveKind, kSolveKind};

/// Popularity ranks dealt to keys: ranks alternate tenants, and each
/// tenant's ranks follow kRankKinds, so every stretch of ranks, the hot
/// head included, carries both tenants and the catalogue's kind mix. The
/// seed picks which key of a kind takes a rank, not which kinds are hot:
/// under Zipf(1) the top rank alone draws 16% of requests, and a random
/// rank order let the seed move the share of 8-solve sweeps between 2%
/// and 15% of requests. Dealt, requests split about 65/20/12/3.5 by kind
/// for every seed.
std::vector<std::uint32_t> deal_ranks(const std::vector<KindGroups>& tenants) {
  std::vector<std::uint32_t> rank_to_key;
  std::vector<std::array<std::size_t, kKinds>> next(tenants.size());
  for (std::size_t r = 0;; ++r) {
    const std::size_t t = r % tenants.size();
    const Kind kind = kRankKinds[(r / tenants.size()) % std::size(kRankKinds)];
    const std::vector<std::uint32_t>& group = tenants[t][kind];
    if (next[t][kind] == group.size()) return rank_to_key;
    rank_to_key.push_back(group[next[t][kind]++]);
  }
}

/// `count` Zipf(s = 1) draws over the ranks of `rank_to_key`.
std::vector<std::uint32_t> zipf_sequence(
    Rng& rng, const std::vector<std::uint32_t>& rank_to_key,
    std::size_t count) {
  const std::size_t n = rank_to_key.size();
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) cdf[r] = sum += 1.0 / (r + 1.0);
  std::vector<std::uint32_t> sequence(count);
  for (std::uint32_t& key : sequence) {
    const double u = rng.uniform() * sum;
    const std::size_t rank =
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    key = rank_to_key[std::min(rank, n - 1)];
  }
  return sequence;
}

/// Publishes `models` in order, one every `period_s` from its start; each
/// publish bumps that tenant's epoch.
class Publisher {
 public:
  Publisher(tenant::TenantRegistry& registry,
            std::vector<Tenant> models,
            double period_s)
      : registry_(registry), models_(std::move(models)), period_s_(period_s) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Publish start/end times (valid after stop()).
  const std::vector<std::pair<std::int64_t, std::int64_t>>& publishes() const {
    return publishes_;
  }
  const std::string& error() const { return error_; }

 private:
  void loop() {
    auto next = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < models_.size(); ++k) {
      next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(period_s_));
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (cv_.wait_until(lock, next, [this] { return stopping_; })) return;
      }
      const std::int64_t start = now_ns();
      try {
        registry_.publish(models_[k].first, models_[k].second);
      } catch (const std::exception& e) {
        error_ = e.what();
        return;
      }
      publishes_.emplace_back(start, now_ns());
    }
  }

  tenant::TenantRegistry& registry_;
  std::vector<Tenant> models_;
  double period_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::pair<std::int64_t, std::int64_t>> publishes_;
  std::string error_;
  std::thread thread_;  // last: starts after the state above exists
};

}  // namespace

Outcome run_serve_fleet(const RunConfig& config, Tracer& tracer) {
  Outcome out;
  out.connections = kConnections;
  out.load_threads = 2;  // the generator and the publisher
  const Phases p = phases(config);
  const double rate = 3000.0;

  const auto make_stack = [] {
    return std::make_unique<Stack>(
        std::vector<Tenant>{{"geant", geant_model()},
                            {"abilene", abilene_model()}},
        256);
  };
  std::unique_ptr<Stack> stack =
      timed_setup(15, &out.metrics["setup_s"], make_stack);
  const tenant::TenantModel geant = stack->tenants[0].second;
  const tenant::TenantModel abilene = stack->tenants[1].second;

  // Inputs: the catalogue, Zipf key draws, arrivals, and the republished
  // models, all from the seed and all before timing starts.
  const std::int64_t gen_start = now_ns();
  Rng rng(config.seed);
  std::vector<Key> keys;
  const std::vector<std::uint32_t> rank_to_key =
      deal_ranks({add_catalogue("geant", geant, rng, keys),
                  add_catalogue("abilene", abilene, rng, keys)});
  if (rank_to_key.size() != keys.size())
    throw Error("the fleet catalogue does not deal into ranks evenly");
  const std::vector<SliceArrivals> arrivals = slice_arrivals(rng, rate, p);
  const std::vector<std::uint32_t> draws =
      zipf_sequence(rng, rank_to_key, 1 << 20);
  // Each slice republishes one tenant, alternating, halfway through its
  // open loop, with loads two hours further along a diurnal day. The
  // closed loop measures the peak of the settled mix.
  const traffic::DiurnalPattern day(0.3, 14.0 * 3600.0);
  std::vector<Tenant> republish;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const bool even = k % 2 == 0;
    tenant::TenantModel model = even ? geant : abilene;
    const double factor = day.factor(2.0 * 3600.0 * static_cast<double>(k));
    for (double& load : model.loads) load *= factor;
    republish.emplace_back(even ? "geant" : "abilene", std::move(model));
  }
  out.metrics["traffic.input_gen_ms"] = ns_to_ms(now_ns() - gen_start);

  // Per-key answers on the current stack: every non-hit answer's hash
  // (one per epoch, or more when concurrent misses of one key race), and
  // every hit's hash.
  std::vector<std::vector<std::uint64_t>> solved_hashes(keys.size());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> hit_hashes;
  std::uint64_t expected_solves = 0;
  SolverTally tally;
  std::size_t cursor = 0;
  std::vector<std::uint32_t> key_of;  // per request of the current phase
  const auto make_traffic = [&](bool keep) {
    return Traffic{
        [&](std::size_t i) {
          const std::uint32_t key = draws[cursor++ % draws.size()];
          if (key_of.size() <= i) key_of.resize(i + 1);
          key_of[i] = key;
          return keys[key].request;
        },
        [&, keep](std::size_t i, const serve::Response& r) {
          if (r.status != serve::ResponseStatus::kOk) return;
          const std::uint32_t key = key_of[i];
          const std::uint64_t hash = answer_hash(r);
          if (r.cache == serve::CacheOutcome::kHit) {
            hit_hashes.emplace_back(key, hash);
            return;
          }
          expected_solves += keys[key].solves;
          auto& seen = solved_hashes[key];
          if (std::find(seen.begin(), seen.end(), hash) == seen.end())
            seen.push_back(hash);
          if (keep) tally.add(r);
        }};
  };

  // Checks a stack once its traffic is done. Hits replay a solved answer
  // of their key bit for bit and never reach the solver: the (fresh)
  // stack's solver ran exactly the problems of its non-hit answers.
  std::uint64_t solves = 0, evictions = 0, hits_checked = 0;
  const auto retire = [&](const Stack& done) {
    const std::uint64_t ran = done.service->solver_invocations();
    std::size_t stray_hits = 0;
    for (const auto& [key, hash] : hit_hashes) {
      const auto& seen = solved_hashes[key];
      if (std::find(seen.begin(), seen.end(), hash) == seen.end())
        ++stray_hits;
    }
    out.check(stray_hits == 0,
              std::to_string(stray_hits) + " of " +
                  std::to_string(hit_hashes.size()) +
                  " hits differ from every solved answer of their key");
    out.check(ran == expected_solves,
              "solver ran " + std::to_string(ran) + " problems, non-hit"
              " answers account for " + std::to_string(expected_solves));
    solves += ran;
    evictions += done.service->cache().evictions();
    hits_checked += hit_hashes.size();
    for (std::vector<std::uint64_t>& seen : solved_hashes) seen.clear();
    hit_hashes.clear();
    expected_solves = 0;
  };

  std::vector<std::vector<Sample>> samples;
  std::vector<double> post_swap, publish_ms;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (k > 0) {
      retire(*stack);
      stack = make_stack();
    }
    key_of.clear();
    check_answered(
        open_loop(*stack->client, arrivals[k].warm, 1, make_traffic(false)),
        "warm-up", out);
    key_of.clear();
    Publisher publisher(stack->registry, {republish[k]}, p.slice_s / 2);
    samples.push_back(
        open_loop(*stack->client, arrivals[k].open, 1'000'000,
                  make_traffic(true)));
    check_answered(samples.back(), "open-loop", out);
    publisher.stop();
    out.check(publisher.error().empty() && publisher.publishes().size() == 1,
              "one republish in the slice " + publisher.error());
    // Requests due within 100 ms after the publish: the epoch swap
    // empties the tenant's cache slice, so they pay for fresh solves.
    for (const auto& [start, end] : publisher.publishes()) {
      publish_ms.push_back(ns_to_ms(end - start));
      for (const Sample& s : samples.back())
        if (s.recv != 0 && s.due >= end && s.due < end + 100'000'000)
          post_swap.push_back(s.latency_ms());
    }
  }
  key_of.clear();
  const ClosedLoopResult closed =
      closed_loop(*stack->client, p.closed_warm_s, p.window_s, p.windows,
                  10'000'000, make_traffic(false));
  closed_loop_metrics(closed, out);
  retire(*stack);

  open_loop_metrics(samples, out, tracer);
  tally.write(out);
  if (!post_swap.empty())
    std::printf("publishes: %zu, publish p50 %.3f ms; post-swap p90 %.3f ms"
                " (%zu requests)\n",
                publish_ms.size(), quantile(publish_ms, 0.5),
                quantile(post_swap, 0.9), post_swap.size());
  std::printf("solver: %llu problems; %llu hits checked\n",
              static_cast<unsigned long long>(solves),
              static_cast<unsigned long long>(hits_checked));
  out.metrics["core.solver_invocations"] = static_cast<double>(solves);
  out.metrics["tenant.cache_evictions"] = static_cast<double>(evictions);
  return out;
}

}  // namespace bench
