// netmon benchmark program: one workload per process.
//
//   netmon_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--out DIR] [--git SHA]
//
// Prints a human-readable report, then the fingerprint line, and as the
// last line of stdout one JSON object: {"correct", "attempted",
// "failed", "metrics"}, where metrics holds the end-to-end catalogue
// (--trace 0) or the per-layer catalogue (--trace 1). The full result,
// both catalogues and the fingerprint, is also written to
// DIR/result_<workload>_trace<T>.json, and with --trace 1 the spans to
// DIR/trace_<workload>.jsonl. Exits 1 when an output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace bench;

const std::map<std::string, std::function<Outcome(const RunConfig&, Tracer&)>>
    kWorkloads = {
        {"serve_miss", run_serve_miss},   {"serve_fleet", run_serve_fleet},
        {"measure_loop", run_measure_loop}, {"scale_exact", run_scale_exact},
        {"scale_approx", run_scale_approx},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "netmon_bench: %s\nusage: netmon_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--git SHA]\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        config.trace = v == "1";
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--out") {
        config.out_dir = value();
      } else if (arg == "--git") {
        config.git = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (kWorkloads.count(config.workload) == 0)
    usage("unknown workload '" + config.workload + "'");
  if (!(config.seconds > 0.0 && config.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return config;
}

std::string metrics_json(const std::vector<MetricDef>& defs,
                         const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  const char* sep = "";
  for (const MetricDef& def : defs) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", values.at(def.name));
    out << sep << json_quote(def.name) << ":{\"value\":" << number
        << ",\"unit\":" << json_quote(def.unit) << "}";
    sep = ",";
  }
  out << "}";
  return out.str();
}

std::string map_json(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  const char* sep = "";
  for (const auto& [key, value] : values) {
    out += sep + json_quote(key) + ":" + json_quote(value);
    sep = ",";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::printf("%s\n", title);
  for (const MetricDef& def : defs)
    std::printf("  %-28s %16.6g %s\n", def.name, values.at(def.name),
                def.unit);
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse(argc, argv);
  std::printf("== netmon benchmark: %s seed=%llu seconds=%g trace=%d%s ==\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.smoke ? " smoke" : "");
  std::fflush(stdout);

  Tracer tracer(config.trace, std::size_t{1} << 18);
  Outcome outcome;
  try {
    outcome = kWorkloads.at(config.workload)(config, tracer);
    // A layer the workload never calls did no work: it reads 0.
    for (const MetricDef& def : kPerLayer)
      outcome.metrics.try_emplace(def.name, 0.0);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "netmon_bench: %s failed: %s\n",
                 config.workload.c_str(), error.what());
    return 1;
  }

  // Every catalogue metric must be measured and finite; a gap is a bug in
  // the workload, reported as a failed check rather than a fake number.
  std::string unmeasured;
  for (const auto* defs : {&kEndToEnd, &kPerLayer})
    for (const MetricDef& def : *defs) {
      auto it = outcome.metrics.find(def.name);
      if (it != outcome.metrics.end() && std::isfinite(it->second)) continue;
      unmeasured += std::string(" ") + def.name;
      outcome.metrics[def.name] = 0.0;
    }
  if (!unmeasured.empty())
    outcome.check(false, "metrics not measured:" + unmeasured);

  print_table("end-to-end:", kEndToEnd, outcome.metrics);
  print_table("per-layer:", kPerLayer, outcome.metrics);

  std::error_code error;
  std::filesystem::create_directories(config.out_dir, error);
  if (config.trace) {
    const std::string path = config.out_dir + "/trace_" + config.workload +
                             ".jsonl";
    if (!tracer.write_jsonl(path))
      std::fprintf(stderr, "netmon_bench: cannot write %s\n", path.c_str());
    std::printf("trace: %zu spans (%llu dropped) -> %s\n", tracer.recorded(),
                static_cast<unsigned long long>(tracer.dropped()),
                path.c_str());
  }

  const bool correct = outcome.failed == 0;
  const std::string fp = map_json(fingerprint(config));
  std::ostringstream all_metrics;
  {
    std::vector<MetricDef> all = kEndToEnd;
    all.insert(all.end(), kPerLayer.begin(), kPerLayer.end());
    all_metrics << metrics_json(all, outcome.metrics);
  }
  const std::string path = config.out_dir + "/result_" + config.workload +
                           "_trace" + (config.trace ? "1" : "0") + ".json";
  std::ofstream(path) << "{\"workload\":" << json_quote(config.workload)
                      << ",\"trace\":" << (config.trace ? 1 : 0)
                      << ",\"smoke\":" << (config.smoke ? 1 : 0)
                      << ",\"fingerprint\":" << fp
                      << ",\"load_threads\":" << outcome.load_threads
                      << ",\"connections\":" << outcome.connections
                      << ",\"correct\":" << (correct ? "true" : "false")
                      << ",\"attempted\":" << outcome.attempted
                      << ",\"failed\":" << outcome.failed
                      << ",\"metrics\":" << all_metrics.str() << "}\n";

  std::printf("fingerprint %s\n", fp.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(config.trace ? kPerLayer : kEndToEnd,
                           outcome.metrics)
                  .c_str());
  return correct ? 0 : 1;
}
