// Run options, the result record every workload fills, and the small
// measurement helpers they share.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

struct Options {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Self-test: check every decision and commit instead of a sample.
  bool check_all = false;
  // Taken first thing in main(); set-up time is measured from here.
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Check failures; the run is correct iff this stays empty.
  std::vector<std::string> errors;
  // End-to-end metrics, printed by untraced runs.
  std::vector<Metric> end_to_end;
  // Per-layer metrics, printed by traced runs.
  std::vector<Metric> per_layer;
  // Counts that must repeat exactly for a seed (self-test).
  std::vector<Metric> exact;

  void Fail(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

// Linear interpolation between closest ranks; sorts in place.
inline double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Result RunControllerCold(const Options& options);
Result RunControllerEvents(const Options& options);
Result RunFleetStorm(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
