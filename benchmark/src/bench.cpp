#include "bench.hpp"

#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "opt/objective.hpp"

#ifndef NETMON_BENCH_BUILD_TYPE
#define NETMON_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"traffic.input_gen_ms", "ms"},
    {"core.solver_invocations", "count"},
    {"core.solve_pct", "%"},
    {"core.partition_pct", "%"},
    {"core.approx_subsolve_iters", "count"},
    {"opt.iters_cold_mean", "count"},
    {"opt.iters_warm_mean", "count"},
    {"opt.release_events", "count"},
    {"opt.certificate_gap_rel", "ratio"},
    {"runtime.prefix_speedup", "ratio"},
    {"serve.wire_pct", "%"},
    {"serve.transport_pct", "%"},
    {"serve.queue_pct", "%"},
    {"serve.batch_size_mean", "count"},
    {"serve.peak_rps", "1/s"},
    {"tenant.hit_ratio", "ratio"},
    {"tenant.warm_ratio", "ratio"},
    {"tenant.miss_ratio", "ratio"},
    {"tenant.cache_evictions", "count"},
    {"ingest.run_pct", "%"},
    {"ingest.estimate_pct", "%"},
    {"ingest.pkts_per_bin", "count"},
    {"ingest.pkts_per_s", "1/s"},
    {"ingest.sampled_ratio", "ratio"},
    {"netflow.records_per_bin", "count"},
    {"control.step_pct", "%"},
    {"control.resolve_ratio", "ratio"},
    {"control.push_per_resolve", "ratio"},
};

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

Tracer::Tracer(bool enabled, std::size_t capacity) : enabled_(enabled) {
  if (enabled_) spans_.resize(capacity);
}

void Tracer::record(const Span& span) noexcept {
  if (!enabled_) return;
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_[slot] = span;
}

std::uint64_t Tracer::span(std::uint64_t trace_id, std::uint64_t parent,
                           const char* name, std::int64_t start_ns,
                           std::int64_t end_ns) noexcept {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id();
  record({trace_id, id, parent, name, start_ns, end_ns});
  return id;
}

std::size_t Tracer::recorded() const noexcept {
  return std::min(next_.load(), spans_.size());
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (std::size_t i = 0; i < recorded(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"trace_id\":%llu,\"span_id\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.span_id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(file) == 0;
}

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  const auto last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
}

std::size_t numa_nodes() {
  std::error_code error;
  std::size_t nodes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/sys/devices/system/node", error)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(0, 4, "node") == 0 &&
        std::isdigit(static_cast<unsigned char>(name[4])))
      ++nodes;
  }
  return nodes;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::map<std::string, std::string> fingerprint(const RunConfig& config) {
  namespace opt = netmon::opt;
  return {
      {"cpu_model", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"numa_nodes", std::to_string(numa_nodes())},
      {"simd_dispatch", opt::simd_level_name(opt::simd_dispatch_level())},
      {"simd_max", opt::simd_level_name(opt::simd_max_level())},
      {"compiler", compiler()},
      {"build_type", NETMON_BENCH_BUILD_TYPE},
      {"git", config.git},
      {"seed", std::to_string(config.seed)},
  };
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace bench
