// Real TCP transport for the placement query service: an epoll-based
// nonblocking server that feeds any serve::Service, and a matching
// Transport client.
//
//   client thread            I/O thread (one per server)   dispatcher
//   -------------            ---------------------------   ----------
//   TcpClient::send          epoll wait
//     encode frame     --->  read -> FrameAssembler
//                              -> decode_request
//                              -> Service::submit ------>  solve batch
//                            completion queue  <---------  done(Response)
//                            (mutex + eventfd wake)
//   future completes   <---  write frames (backpressure:
//                            pause reads past high water)
//
// Properties the tests pin down: frames reassemble identically across
// any read segmentation; a corrupt stream is rejected at the earliest
// impossible byte and the connection closed (protocol mismatch path);
// per-connection write backpressure stops reading — never buffers
// unboundedly — until the queue drains; idle connections close on the
// injectable obs::Clock; stop() drains in-flight requests before
// closing. Responses are bit-identical to the same fleet over
// LoopbackTransport because both feed the same Service.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/epoll_loop.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace netmon::serve {

/// Incremental frame reassembly over an arbitrary byte segmentation.
/// feed() buffers the bytes and invokes the sink once per complete frame
/// — the same frames, in the same order, no matter how the stream was
/// chopped. Throws netmon::Error as soon as the buffered prefix cannot
/// start a valid frame (corrupt stream: the transport closes the
/// connection, since framing cannot resynchronize).
class FrameAssembler {
 public:
  using FrameSink = std::function<void(std::span<const std::uint8_t>)>;

  void feed(std::span<const std::uint8_t> bytes, const FrameSink& on_frame);

  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

struct TcpServerOptions {
  /// Listen address (IPv4 dotted quad, or "localhost").
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; port() reports the actual one.
  std::uint16_t port = 0;
  int backlog = 64;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 64;
  /// Per-connection write backpressure: when queued response bytes
  /// exceed this, the server stops reading the connection until the
  /// queue drains below half. Bounded memory per slow client.
  std::size_t write_high_water = 4u << 20;
  /// Close connections with no traffic and nothing in flight for this
  /// long (on the injected clock); 0 disables.
  std::chrono::milliseconds idle_timeout{0};
  /// I/O loop poll interval (bounds stop/idle-scan latency when quiet).
  std::chrono::milliseconds poll{20};
  /// stop() waits this long for in-flight requests to answer and write
  /// queues to flush before closing connections anyway.
  std::chrono::milliseconds drain_timeout{2000};
  /// Injected clock for idle timeouts and drain deadlines (null = the
  /// process steady clock). Borrowed; must outlive the server.
  const obs::Clock* clock = nullptr;
  /// Optional flight recorder for kConnOpen/kConnClose events. Borrowed.
  obs::FlightRecorder* recorder = nullptr;
  /// Optional registry for netmon_tcp_* metrics. Borrowed.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Nonblocking epoll TCP server front-end over any serve::Service. One
/// I/O thread owns every socket; dispatcher completion callbacks hand
/// encoded responses back through a mutex-guarded queue plus an eventfd
/// wake, so no socket is ever touched off the I/O thread.
class TcpServer {
 public:
  TcpServer(Service& service, TcpServerOptions options = {});
  /// stop()s (graceful drain) if not already stopped.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (resolves ephemeral port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown: stop accepting, stop reading, flush in-flight
  /// responses (up to drain_timeout), close everything. Idempotent.
  void stop();

  /// Live connection count (approximate: updated by the I/O thread).
  std::size_t connections() const noexcept {
    return live_conns_.load(std::memory_order_acquire);
  }
  /// Connections closed for speaking a corrupt / mismatched protocol.
  std::uint64_t protocol_errors() const noexcept {
    return protocol_errors_.load(std::memory_order_acquire);
  }

 private:
  struct Conn;
  struct Completions;
  static constexpr std::uint64_t kListenTag = 1;

  void io_loop();
  void accept_ready();
  /// False when the connection must close (EOF, error, corrupt stream).
  bool conn_readable(Conn& conn);
  bool pump_writes(Conn& conn);
  void update_interest(Conn& conn);
  void flush_completions();
  void close_conn(std::uint64_t id);
  void begin_drain();

  Service& service_;
  TcpServerOptions options_;
  const obs::Clock* clock_;  // never null

  EpollLoop loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  /// Dispatcher -> I/O thread completion channel; shared_ptr so a
  /// completion outliving the server drops its payload instead of
  /// touching freed state.
  std::shared_ptr<Completions> completions_;

  // I/O-thread-only state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0 = wake, 1 = listen
  std::size_t pending_total_ = 0;   // submitted, not yet completed
  bool draining_ = false;
  obs::TimePoint drain_deadline_{};

  std::atomic<std::size_t> live_conns_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<bool> stop_requested_{false};
  std::once_flag stop_once_;

  obs::Counter accepted_;
  obs::Counter rejected_conns_;
  obs::Counter requests_;
  obs::Counter rx_bytes_;
  obs::Counter tx_bytes_;
  obs::Counter protocol_error_count_;
  obs::Gauge conn_gauge_;

  std::thread io_;
};

struct TcpClientOptions {
  std::chrono::milliseconds connect_timeout{5000};
  /// I/O loop poll interval.
  std::chrono::milliseconds poll{20};
};

/// Blocking-connect, nonblocking-I/O TCP client. send() is safe from any
/// thread; responses are matched to futures by Request::id (which must
/// be unique among in-flight requests on one connection). When the
/// connection drops, every outstanding future completes with a typed
/// kShutdown response — never a broken promise.
class TcpClient final : public Transport {
 public:
  TcpClient(const std::string& host, std::uint16_t port,
            TcpClientOptions options = {});
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  std::future<Response> send(Request request) override;

  /// Closes the connection; outstanding futures complete typed. Safe to
  /// call repeatedly.
  void close();

  /// True until the connection dropped or close() was called.
  bool connected() const;

 private:
  void io_loop();
  void fail_all_pending(const char* why);

  static constexpr std::uint64_t kConnTag = 1;

  TcpClientOptions options_;
  EpollLoop loop_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::promise<Response>> pending_;
  std::vector<std::vector<std::uint8_t>> outbox_;
  bool closed_ = false;

  // I/O-thread-only state.
  FrameAssembler assembler_;
  std::deque<std::vector<std::uint8_t>> writeq_;
  std::size_t write_offset_ = 0;
  std::uint32_t interest_ = 0;

  std::atomic<bool> stop_requested_{false};
  std::once_flag close_once_;
  std::thread io_;
};

}  // namespace netmon::serve
