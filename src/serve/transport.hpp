// The two seams of the serving layer.
//
// `Service` is the server side: anything that accepts a Request and
// promises exactly one typed Response through a callback. Transports see
// only this seam, not tenant::TenantService, which implements it.
//
// `Transport` is the client side: anything that carries a Request to a
// Service and brings the Response back — in-process loopback
// (serve/loopback.hpp) and real TCP (serve/tcp_transport.hpp) both
// implement it, so tests can run the same request fleet over either and
// assert the responses are bit-identical.
#pragma once

#include <future>
#include <memory>
#include <utility>

#include "serve/request.hpp"

namespace netmon::serve {

/// Server side: accepts queries, answers every one exactly once.
class Service {
 public:
  virtual ~Service() = default;

  /// Submits a query. `done` is invoked exactly once with the typed
  /// Response — synchronously for submit-time rejections (kBadRequest /
  /// kRejectedQueueFull / kRejectedQuota / kShutdown) and cache hits, or
  /// later from a dispatcher thread for served requests. The callback
  /// must not block and must not re-enter the service.
  virtual void submit(Request request, ResponseCallback done) = 0;
};

/// Client side: carries requests to a Service and responses back.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Fire-and-forget submit; the future always completes (typed).
  virtual std::future<Response> send(Request request) = 0;

  /// Blocking request/response call.
  Response call(Request request) { return send(std::move(request)).get(); }
};

/// Adapts a callback submission to a future, for callers that want the
/// promise style without a Transport.
inline std::future<Response> submit_future(Service& service,
                                           Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  service.submit(std::move(request), [promise](Response&& response) {
    promise->set_value(std::move(response));
  });
  return future;
}

}  // namespace netmon::serve
