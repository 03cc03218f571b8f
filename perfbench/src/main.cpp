// perfbench: runs one named workload against the GSO controller or the
// orchestration service and prints one JSON result line.
//
//   perfbench --workload controller_cold|controller_events|fleet_storm
//             --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// With --trace 0 the result carries the end-to-end metrics, with --trace 1
// the per-layer ones. Diagnostics go to stderr; the last stdout line is
// the result. --self-test runs every workload briefly with every check on
// every output, twice on one seed and once on another, and fails unless
// each run is correct and the exact counts repeat on the repeated seed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

const std::map<std::string, std::function<Result(const Options&)>>&
Workloads() {
  static const std::map<std::string, std::function<Result(const Options&)>>
      workloads = {
          {"controller_cold", perfbench::RunControllerCold},
          {"controller_events", perfbench::RunControllerEvents},
          {"fleet_storm", perfbench::RunFleetStorm},
      };
  return workloads;
}

// Every per-layer metric, in print order. A workload that does not run a
// layer reports 0 for its metrics (see README.md for the map).
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"core.compile_us", "us"},
    {"core.warm_diff_us", "us"},
    {"core.step1_us", "us"},
    {"core.step2_us", "us"},
    {"core.step3_us", "us"},
    {"core.knapsacks", "count"},
    {"core.iterations", "count"},
    {"core.step1_cache_hits", "count"},
    {"core.fleet_solve_ms", "ms"},
    {"fleet.conf_seconds_per_s", "1/s"},
    {"fleet.satisfaction_mean", "score"},
    {"service.slice_ms_p50", "ms"},
    {"service.slice_ms_p90", "ms"},
    {"service.admit_us_p50", "us"},
    {"service.remove_us_p50", "us"},
    {"service.solves_committed", "count"},
    {"service.solves_shed", "count"},
    {"service.batch_mean", "count"},
    {"sim.packets_delivered", "count"},
    {"sim.bytes_delivered", "bytes"},
    {"sim.packets_dropped", "count"},
    {"sim.ns_per_packet", "ns"},
};

std::vector<Metric> PerLayer(const Result& result) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kPerLayer) {
    Metric metric{name, 0.0, unit};
    for (const Metric& m : result.per_layer) {
      if (m.name == name) metric.value = m.value;
    }
    metrics.push_back(metric);
  }
  return metrics;
}

void PrintResult(const Result& result, bool trace) {
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const std::vector<Metric> metrics =
      trace ? PerLayer(result) : result.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int SelfTest(Options options) {
  options.seconds = 1;
  options.trace = true;
  options.check_all = true;
  bool ok = true;
  for (const auto& [name, run] : Workloads()) {
    options.seed = 1;
    const Result a = run(options);
    const Result b = run(options);
    options.seed = 2;
    const Result c = run(options);
    const bool correct =
        a.errors.empty() && b.errors.empty() && c.errors.empty();
    bool repeats = a.exact.size() == b.exact.size() && !a.exact.empty();
    for (size_t i = 0; repeats && i < a.exact.size(); ++i) {
      repeats = a.exact[i].value == b.exact[i].value;
      if (!repeats) {
        std::fprintf(stderr, "%s: %s differs between two runs of seed 1\n",
                     name.c_str(), a.exact[i].name.c_str());
      }
    }
    bool seed_matters = false;
    for (size_t i = 0; i < a.exact.size() && i < c.exact.size(); ++i) {
      seed_matters = seed_matters || a.exact[i].value != c.exact[i].value;
    }
    for (const Result* r : {&a, &b, &c}) {
      for (const std::string& error : r->errors) {
        std::fprintf(stderr, "%s: check failed: %s\n", name.c_str(),
                     error.c_str());
      }
    }
    const bool pass = correct && repeats && seed_matters;
    std::fprintf(stderr, "self-test %-18s %s (%llu decisions)\n", name.c_str(),
                 pass ? "ok" : "FAILED",
                 static_cast<unsigned long long>(a.attempted));
    ok = ok && pass;
  }
  std::printf("%s\n", ok ? "self-test passed" : "self-test FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.process_start = perfbench::Clock::now();
  std::string workload;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
      continue;
    }
    const unsigned long long number = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') return Usage();
    if (arg == "--seed") {
      options.seed = number;
    } else if (arg == "--seconds" && number >= 1 && number <= 3600) {
      options.seconds = static_cast<int>(number);
    } else if (arg == "--trace" && number <= 1) {
      options.trace = number == 1;
    } else {
      return Usage();
    }
  }
  if (self_test) return SelfTest(options);
  const auto it = Workloads().find(workload);
  if (it == Workloads().end()) return Usage();
  PrintResult(it->second(options), options.trace);
  return 0;
}
