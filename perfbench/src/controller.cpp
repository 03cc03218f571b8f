// controller_cold and controller_events: closed loops of
// Orchestrator::Solve calls, one at a time, each timed on its own and
// checked against its snapshot.
//
// Both loops run whole rounds until --seconds have passed. Every round
// replays the same inputs from the same state, so the per-decision counts
// and the QoE of a round repeat bit for bit; the loops check that they do.
#include <memory>

#include "checker.h"
#include "core/brute_force.h"
#include "core/orchestrator.h"
#include "inputs.h"
#include "report.h"

namespace perfbench {
namespace {

using gso::core::OrchestrationProblem;
using gso::core::Orchestrator;
using gso::core::Solution;
using gso::core::SolveRequest;

// Step-1 fan-out width for the cold solves, fixed whatever the host. One
// thread: on a shared 4-vCPU host a 4-wide fan-out waits on whichever vCPU
// is slowest, and its timings spread too wide to bound (see README.md).
constexpr int kColdThreads = 1;
// Four rounds of 28 cold solves put at least ten decisions beyond p90 even
// when the host is slow (the self-test runs one).
constexpr int kMinColdRounds = 4;
// The event schedule (which meeting, which kind of event) is the same for
// every seed; the seed draws the meetings' contents and the events' details.
constexpr uint64_t kScheduleSeed = 0x5eed5c4edull;
// Events per controller_events round.
constexpr int kEventsPerRound = 1000;
// Every kColdCompareEvery-th event is re-solved cold on a fresh
// orchestrator and compared with the warm result.
constexpr int kColdCompareEvery = 25;

// What a round of decisions adds up to; every round must agree exactly.
struct RoundTotals {
  int64_t decisions = 0;
  int64_t subscriptions = 0;
  int64_t knapsacks = 0;
  int64_t iterations = 0;
  int64_t cache_hits = 0;
  double qoe = 0.0;

  bool operator==(const RoundTotals&) const = default;

  void Add(const OrchestrationProblem& problem, const Solution& solution) {
    const gso::core::SolveStats& s = solution.stats;
    ++decisions;
    subscriptions += static_cast<int64_t>(problem.subscriptions.size());
    knapsacks += s.knapsack_solves;
    iterations += s.iterations;
    cache_hits += s.step1_cache_hits;
    qoe += solution.total_qoe;
  }
};

// Per-decision samples and stats sums over the timed rounds.
struct DecisionLog {
  std::vector<double> latency_ms;
  double solve_seconds = 0.0;
  double compile_us = 0.0;
  double warm_diff_us = 0.0;
  double step1_us = 0.0;
  double step2_us = 0.0;
  double step3_us = 0.0;
  RoundTotals run;

  void Add(const OrchestrationProblem& problem, const Solution& solution,
           double seconds) {
    latency_ms.push_back(seconds * 1e3);
    solve_seconds += seconds;
    const gso::core::SolveStats& s = solution.stats;
    compile_us += s.compile_wall_us;
    warm_diff_us += s.warm_diff_wall_us;
    step1_us += s.step1_wall_us;
    step2_us += s.step2_wall_us;
    step3_us += s.step3_wall_us;
    run.Add(problem, solution);
  }

  // Fills the metrics shared by both controller workloads; `first` is the
  // first round, whose QoE stands for every round (they are all equal).
  void Report(const RoundTotals& first, double setup_s, Result& result) {
    const double n = static_cast<double>(run.decisions);
    result.attempted = static_cast<uint64_t>(run.decisions);
    const double qoe_mean = first.qoe / static_cast<double>(first.subscriptions);
    result.end_to_end = {
        {"setup_s", setup_s, "s"},
        {"decision_ms_p50", Percentile(latency_ms, 50), "ms"},
        {"decision_ms_p90", Percentile(latency_ms, 90), "ms"},
        {"decisions_per_s", n / solve_seconds, "1/s"},
        {"qoe_mean", qoe_mean, "QoE"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    const double knapsacks = static_cast<double>(run.knapsacks) / n;
    const double iterations = static_cast<double>(run.iterations) / n;
    const double cache_hits = static_cast<double>(run.cache_hits) / n;
    result.per_layer = {
        {"core.compile_us", compile_us / n, "us"},
        {"core.warm_diff_us", warm_diff_us / n, "us"},
        {"core.step1_us", step1_us / n, "us"},
        {"core.step2_us", step2_us / n, "us"},
        {"core.step3_us", step3_us / n, "us"},
        {"core.knapsacks", knapsacks, "count"},
        {"core.iterations", iterations, "count"},
        {"core.step1_cache_hits", cache_hits, "count"},
    };
    result.exact = {
        {"core.knapsacks", knapsacks, "count"},
        {"core.iterations", iterations, "count"},
        {"core.step1_cache_hits", cache_hits, "count"},
        {"qoe_mean", qoe_mean, "QoE"},
    };
  }
};

void CheckDecision(const OrchestrationProblem& problem,
                   const Solution& solution, const char* where,
                   Result& result) {
  const std::string error = CheckSolution(problem, solution);
  if (!error.empty()) result.Fail(std::string(where) + ": " + error);
}

void CheckRound(const RoundTotals& first, const RoundTotals& round,
                Result& result) {
  if (!(first == round)) {
    result.Fail("a replayed round differs from the first round");
  }
}

// Step-1 optimality on snapshots small enough to enumerate.
void CheckAgainstExhaustive(uint64_t seed, Result& result) {
  const gso::core::DpMckpSolver solver;
  const gso::core::BruteForceOrchestrator brute_force;
  for (const OrchestrationProblem& problem : EnumerableProblems(seed)) {
    const Orchestrator orchestrator(&solver);
    const Solution& dp = orchestrator.Solve(SolveRequest::Cold(problem));
    CheckDecision(problem, dp, "enumerable", result);
    const Solution exhaustive = brute_force.Solve(problem);
    CheckDecision(problem, exhaustive, "exhaustive", result);
    const std::string error =
        CheckStep1AgainstExhaustive(problem, dp, exhaustive);
    if (!error.empty()) result.Fail("step-1 optimality: " + error);
  }
}

}  // namespace

Result RunControllerCold(const Options& options) {
  Result result;
  std::vector<OrchestrationProblem> problems;
  for (const MeetingModel& meeting : ColdMeetings(options.seed)) {
    problems.push_back(BuildProblem(meeting));
  }
  const gso::core::DpMckpSolver solver;
  gso::core::OrchestratorOptions orchestrator_options;
  orchestrator_options.step1_threads = kColdThreads;
  const Orchestrator orchestrator(&solver, orchestrator_options);
  // Initial solves: workspaces grow to the largest snapshot here.
  for (const OrchestrationProblem& problem : problems) {
    CheckDecision(problem, orchestrator.Solve(SolveRequest::Cold(problem)),
                  "initial solve", result);
  }
  const double setup_s = SecondsSince(options.process_start);

  DecisionLog log;
  RoundTotals first;
  const Clock::time_point start = Clock::now();
  const int min_rounds = options.check_all ? 1 : kMinColdRounds;
  for (int round = 0;
       round < min_rounds || SecondsSince(start) < options.seconds; ++round) {
    RoundTotals totals;
    for (const OrchestrationProblem& problem : problems) {
      const Clock::time_point t0 = Clock::now();
      const Solution& solution =
          orchestrator.Solve(SolveRequest::Cold(problem));
      log.Add(problem, solution, SecondsSince(t0));
      totals.Add(problem, solution);
      CheckDecision(problem, solution, "cold solve", result);
    }
    if (round == 0) first = totals;
    CheckRound(first, totals, result);
  }
  CheckAgainstExhaustive(options.seed, result);
  log.Report(first, setup_s, result);
  return result;
}

Result RunControllerEvents(const Options& options) {
  Result result;
  const std::vector<MeetingModel> initial = StandingMeetings(options.seed);
  const gso::core::DpMckpSolver solver;
  std::vector<std::unique_ptr<Orchestrator>> orchestrators;
  for (size_t i = 0; i < initial.size(); ++i) {
    orchestrators.push_back(std::make_unique<Orchestrator>(&solver));
  }
  std::vector<MeetingModel> meetings;
  std::vector<OrchestrationProblem> problems(initial.size());
  // Back to the standing state: every meeting re-solved from an empty
  // warm state (one cold-equivalent solve each, untimed). Every round
  // starts here.
  auto reset = [&] {
    meetings = initial;
    for (size_t i = 0; i < meetings.size(); ++i) {
      problems[i] = BuildProblem(meetings[i]);
      orchestrators[i]->ResetWarmState();
      CheckDecision(problems[i],
                    orchestrators[i]->Solve(SolveRequest::Warm(problems[i])),
                    "standing solve", result);
    }
  };
  // One round of events from the standing state; `log` is null for the
  // untimed round that ends set-up.
  const int compare_every = options.check_all ? 1 : kColdCompareEvery;
  auto play_round = [&](DecisionLog* log) {
    reset();
    gso::Rng schedule(kScheduleSeed);
    gso::Rng events(options.seed * 0x9e3779b97f4a7c15ull + 0xe7e27);
    RoundTotals totals;
    for (int e = 0; e < kEventsPerRound; ++e) {
      const size_t m = ApplyNextEvent(schedule, events, meetings);
      problems[m] = BuildProblem(meetings[m]);
      const Clock::time_point t0 = Clock::now();
      const Solution& solution =
          orchestrators[m]->Solve(SolveRequest::Warm(problems[m]));
      const double seconds = SecondsSince(t0);
      if (log != nullptr) log->Add(problems[m], solution, seconds);
      totals.Add(problems[m], solution);
      CheckDecision(problems[m], solution, "warm solve", result);
      if (e % compare_every == 0) {
        const Orchestrator fresh(&solver);
        const std::string diff = CompareSolutions(
            fresh.Solve(SolveRequest::Cold(problems[m])), solution);
        if (!diff.empty()) {
          result.Fail("warm solve differs from a cold one in " + diff);
        }
      }
    }
    return totals;
  };
  // Set-up ends with one untimed round, as controller_cold's ends with an
  // untimed pass: workspaces and warm caches reach their working size
  // before anything is timed, and set-up is long enough to time steadily.
  const RoundTotals first = play_round(nullptr);
  const double setup_s = SecondsSince(options.process_start);

  DecisionLog log;
  const Clock::time_point start = Clock::now();
  do {
    CheckRound(first, play_round(&log), result);
  } while (SecondsSince(start) < options.seconds);
  CheckAgainstExhaustive(options.seed, result);
  log.Report(first, setup_s, result);
  return result;
}

}  // namespace perfbench
