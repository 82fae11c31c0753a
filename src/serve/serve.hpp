// Umbrella header for the placement query service.
//
// serve/ turns the optimizer into a long-running service: transports
// submit placement queries (solves, failure what-ifs, theta sweeps,
// accuracy reports) into a bounded queue; a dispatcher coalesces
// compatible requests into core::BatchSolver batches and answers every
// admitted request with exactly one typed Response. The one Service
// implementation is tenant::TenantService; see tenant/service.hpp for
// the dataflow and the backpressure contract.
#pragma once

#include "serve/batcher.hpp"        // IWYU pragma: export
#include "serve/exec.hpp"           // IWYU pragma: export
#include "serve/loopback.hpp"       // IWYU pragma: export
#include "serve/queue.hpp"          // IWYU pragma: export
#include "serve/request.hpp"        // IWYU pragma: export
#include "serve/stats.hpp"          // IWYU pragma: export
#include "serve/tcp_transport.hpp"  // IWYU pragma: export
#include "serve/transport.hpp"      // IWYU pragma: export
#include "serve/wire.hpp"           // IWYU pragma: export
