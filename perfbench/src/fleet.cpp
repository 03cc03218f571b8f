// fleet_storm: service::OrchestrationService under a churn storm of the
// fleet model's 2-8-participant meetings with fault waves.
//
// This storm generator mirrors service::ChurnStorm (ramp to a target, retire
// at the end of a drawn lifetime, backfill, a fault wave every few
// seconds) but lives here so the benchmark can time each Admit, Remove
// and RunFor(slice) call and read every conference between slices:
// its access-link counters before it is removed, and each solve it
// committed (ConferenceNode::last_problem / last_solution). The fleet's
// decision latency is the committed solve's own wall time
// (SolveStats::total_wall_us, taken by the service's solver thread).
// Untraced runs re-solve a sample of committed problems cold on a
// temporary orchestrator, which must give the committed solution bit for
// bit. Traced runs instead re-solve every committed problem warm on an
// orchestrator the benchmark keeps per conference (core.fleet_solve_ms)
// and classify what changed between a conference's consecutive commits;
// that solve mix is printed to stderr and is what controller_events'
// event mix is taken from (see README.md).
//
// The storm runs a fixed virtual duration (scaled by --seconds), so every
// count it reports repeats exactly for a seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "checker.h"
#include "conference/scenarios.h"
#include "core/orchestrator.h"
#include "report.h"
#include "service/fleet_model.h"
#include "service/service.h"

namespace perfbench {
namespace {

using gso::TimeDelta;
using gso::Timestamp;

// Two shards, one solver thread each, their slices run one after the other
// on the calling thread: the whole storm runs on one thread. (Parallel
// slice threads spread decisions_per_s five times wider between runs on a
// shared 4-vCPU host; see README.md.)
constexpr int kShards = 2;
constexpr int kSolverThreadsPerShard = 1;
constexpr int kTargetConcurrent = 96;
// Admission never binds: every backfill is accepted.
constexpr int kMaxConferences = 2 * kTargetConcurrent;
constexpr int kSolveBacklog = 64;
constexpr TimeDelta kSlice = TimeDelta::Millis(200);
constexpr int kSlicesPerStep = 5;  // churn decisions every second
constexpr TimeDelta kMeanLifetime = TimeDelta::Seconds(12);
constexpr TimeDelta kWavePeriod = TimeDelta::Seconds(5);
constexpr double kWaveFraction = 0.05;
// Virtual seconds of storm per --seconds: a 96-conference second takes
// 1.0-1.5 wall seconds on a 4-vCPU Xeon VM, so a run measures about
// --seconds or a little longer. Set-up admits the fleet and runs kRampSteps
// virtual seconds, the shortest lifetime, so the first meetings are
// starting to end and be replaced, and so set-up is long enough to time.
constexpr double kVirtualPerSecond = 1.0;
constexpr int kRampSteps = 6;
constexpr uint64_t kScheduleSeed = 0xf1ee7ull;
// Untraced runs check one committed solution in kCheckEvery, and re-solve
// it cold to compare.
constexpr int kCheckEvery = 8;

struct LinkTotals {
  int64_t delivered = 0;
  int64_t bytes = 0;
  int64_t dropped = 0;
};

// What changed between two consecutive commits of one conference (traced
// runs). Each commit after a conference's first falls in exactly one class,
// tested in this order.
struct SolveMix {
  int64_t membership = 0;     // a participant joined or left
  int64_t subscriptions = 0;  // same members, other subscriptions or ladders
  int64_t reports = 0;        // only budgets moved: bandwidth reports
  int64_t unchanged = 0;      // the same problem (time trigger, retry)
  // Over the report commits: budgets compared, and how many moved.
  int64_t report_clients = 0;
  int64_t uplinks_moved = 0;
  int64_t downlinks_moved = 0;
  // |ln(new / old)| of every budget that moved.
  std::vector<double> move_sizes;

  void Add(const gso::core::OrchestrationProblem& before,
           const gso::core::OrchestrationProblem& after) {
    bool same_members = before.budgets.size() == after.budgets.size();
    for (size_t i = 0; same_members && i < after.budgets.size(); ++i) {
      same_members = before.budgets[i].client == after.budgets[i].client;
    }
    if (!same_members) {
      ++membership;
      return;
    }
    bool same_ladders = before.capabilities.size() == after.capabilities.size();
    for (size_t i = 0; same_ladders && i < after.capabilities.size(); ++i) {
      same_ladders = before.capabilities[i].source ==
                         after.capabilities[i].source &&
                     before.capabilities[i].options ==
                         after.capabilities[i].options;
    }
    if (!same_ladders || before.subscriptions != after.subscriptions) {
      ++subscriptions;
      return;
    }
    int64_t up = 0;
    int64_t down = 0;
    for (size_t i = 0; i < after.budgets.size(); ++i) {
      const gso::core::ClientBudget& b = before.budgets[i];
      const gso::core::ClientBudget& a = after.budgets[i];
      if (a.uplink != b.uplink) {
        ++up;
        move_sizes.push_back(MoveSize(a.uplink, b.uplink));
      }
      if (a.downlink != b.downlink) {
        ++down;
        move_sizes.push_back(MoveSize(a.downlink, b.downlink));
      }
    }
    if (up + down == 0) {
      ++unchanged;
      return;
    }
    ++reports;
    report_clients += static_cast<int64_t>(after.budgets.size());
    uplinks_moved += up;
    downlinks_moved += down;
  }

  // |ln(new / old)|: the size of a move whichever way it goes.
  static double MoveSize(gso::DataRate after, gso::DataRate before) {
    if (before.IsZero() || after.IsZero()) return 0.0;
    return std::abs(std::log(static_cast<double>(after.bps()) /
                             static_cast<double>(before.bps())));
  }

  void Print() {
    const double commits =
        static_cast<double>(membership + subscriptions + reports + unchanged);
    const double clients =
        static_cast<double>(std::max<int64_t>(1, report_clients));
    std::fprintf(stderr,
                 "solve mix over %.0f commits after each conference's "
                 "first: membership %.4f, subscriptions %.4f, reports %.4f, "
                 "unchanged %.4f; in report commits %.3f of uplinks and %.3f "
                 "of downlinks moved; |ln(new/old)| deciles",
                 commits, membership / commits, subscriptions / commits,
                 reports / commits, unchanged / commits,
                 uplinks_moved / clients, downlinks_moved / clients);
    for (int decile = 0; decile <= 10; ++decile) {
      std::fprintf(stderr, " %.3f", Percentile(move_sizes, decile * 10.0));
    }
    std::fprintf(stderr, "\n");
  }
};

class Storm {
 public:
  Storm(const Options& options, Result& result)
      : options_(options),
        result_(result),
        schedule_(kScheduleSeed),
        rng_(options.seed * 0x2545f4914f6cdd1dull + 17),
        service_(Config()) {}

  // Admits the target fleet and runs the ramp; not measured.
  void Ramp() {
    for (int i = 0; i < kRampSteps; ++i) Step(/*measure=*/false);
  }

  void Run(int steps) {
    const uint64_t solved_before = Solved();
    for (int i = 0; i < steps; ++i) Step(/*measure=*/true);
    committed_in_storm_ = Solved() - solved_before;
  }

  void Finish(double setup_s);

 private:
  static gso::service::ServiceConfig Config() {
    gso::service::ServiceConfig config;
    config.num_shards = kShards;
    config.solver_threads_per_shard = kSolverThreadsPerShard;
    config.max_conferences = kMaxConferences;
    config.solve_backlog = kSolveBacklog;
    config.slice = kSlice;
    config.parallel_shards = false;
    return config;
  }

  struct Tracked {
    Timestamp ends_at;
    uint32_t next_client = 0;
    int commits = 0;
    // Traced runs only: the warm re-solver and the last committed problem.
    std::unique_ptr<gso::core::Orchestrator> replica;
    std::optional<gso::core::OrchestrationProblem> last_problem;
  };

  uint64_t Solved() {
    uint64_t solved = 0;
    for (int i = 0; i < service_.num_shards(); ++i) {
      solved += service_.shard(i).queue_stats().solved;
    }
    return solved;
  }

  template <typename Fn>
  double Timed(Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const double seconds = SecondsSince(start);
    service_seconds_ += measuring_ ? seconds : 0.0;
    return seconds;
  }

  void Step(bool measure) {
    measuring_ = measure;
    Retire();
    TopUp();
    if (service_.Now() >= next_wave_) {
      InjectWave();
      next_wave_ = next_wave_ + kWavePeriod;
    }
    for (int s = 0; s < kSlicesPerStep; ++s) {
      const int live = service_.conference_count();
      const double seconds = Timed([&] { service_.RunFor(kSlice); });
      if (measure) {
        slice_ms_.push_back(seconds * 1e3);
        conference_seconds_ += live * kSlice.seconds();
      }
      ReadCommits(measure);
    }
  }

  void Retire() {
    const Timestamp now = service_.Now();
    for (auto it = tracked_.begin(); it != tracked_.end();) {
      if (it->second.ends_at > now) {
        ++it;
        continue;
      }
      ReadLinks(it->first);
      const uint64_t id = it->first;
      const double seconds = Timed([&] { service_.Remove(id); });
      if (measuring_) remove_us_.push_back(seconds * 1e6);
      ++operations_;
      it = tracked_.erase(it);
    }
  }

  void TopUp() {
    while (service_.conference_count() < kTargetConcurrent) {
      gso::service::ConferenceSpec spec;
      spec.participants = gso::service::DrawParticipants(schedule_);
      spec.seed = rng_.NextUint64();
      const TimeDelta lifetime = kMeanLifetime * schedule_.Uniform(0.5, 1.5);
      std::optional<uint64_t> id;
      const double seconds = Timed([&] { id = service_.Admit(spec); });
      ++operations_;
      if (!id.has_value()) {
        ++result_.failed;
        result_.Fail("admission refused below the configured capacity");
        return;
      }
      if (measuring_) admit_us_.push_back(seconds * 1e6);
      Tracked tracked;
      tracked.ends_at = service_.Now() + lifetime;
      tracked.next_client = static_cast<uint32_t>(spec.participants) + 1;
      if (options_.trace) {
        tracked.replica = std::make_unique<gso::core::Orchestrator>(&solver_);
      }
      tracked_[*id] = std::move(tracked);
    }
    if (service_.conference_count() != kTargetConcurrent) {
      result_.Fail("the storm fell below its target concurrency");
    }
  }

  void InjectWave() {
    std::vector<uint64_t> ids;
    for (const auto& [id, tracked] : tracked_) ids.push_back(id);
    const int victims = std::max(
        1, static_cast<int>(kWaveFraction * static_cast<double>(ids.size())));
    for (int v = 0; v < victims; ++v) {
      const uint64_t id = ids[static_cast<size_t>(
          schedule_.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
      Timed([&] { InjectFault(id); });
    }
  }

  // One fault episode on conference `id`, as service::ChurnStorm scripts
  // them: a link flap, a control-channel loss burst, a controller outage,
  // or one participant leaving and another joining.
  void InjectFault(uint64_t id) {
    gso::conference::Conference* conf = service_.Get(id);
    gso::sim::FaultPlan* plan = service_.fault_plan(id);
    if (conf == nullptr || plan == nullptr) return;
    std::vector<gso::ClientId> members = conf->member_ids();
    const Timestamp start = service_.Now() + TimeDelta::Millis(100);
    const gso::ClientId victim = members[static_cast<size_t>(
        schedule_.UniformInt(0, static_cast<int64_t>(members.size()) - 1))];
    const gso::sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
    switch (schedule_.UniformInt(0, 3)) {
      case 0:
        gso::conference::ScheduleLinkFlap(*conf, *plan, victim, start,
                                          TimeDelta::Seconds(2));
        break;
      case 1:
        gso::conference::ScheduleControlChannelLoss(
            *conf, *plan, victim, start, TimeDelta::Seconds(3), 0.25);
        break;
      case 2:
        gso::conference::ScheduleControllerOutage(*conf, *plan, start,
                                                  TimeDelta::Seconds(2));
        break;
      default: {
        if (members.size() <= 2) return;
        // The leaver's links go with it; count them first.
        AddLinks(conf, victim);
        conf->RemoveParticipant(victim);
        Tracked& tracked = tracked_.at(id);
        gso::conference::ParticipantConfig pc;
        pc.client = gso::conference::DefaultClient(tracked.next_client++);
        pc.access = gso::service::DrawAccess(rng_);
        conf->AddParticipant(pc);
        conf->SubscribeAllCameras(members.size() <= 4 ? gso::kResolution720p
                                                      : gso::kResolution360p);
        break;
      }
    }
  }

  void AddLinks(gso::conference::Conference* conf, gso::ClientId client) {
    for (gso::sim::Link* link : {conf->uplink(client), conf->downlink(client)}) {
      if (link != nullptr) AddLink(*link);
    }
  }

  void AddLink(const gso::sim::Link& link) {
    const gso::sim::LinkStats& s = link.stats();
    const int64_t dropped = s.packets_dropped_queue + s.packets_dropped_loss +
                            s.packets_dropped_down;
    if (s.packets_sent < s.packets_delivered + dropped) {
      result_.Fail("link " + link.name() + " delivered or dropped more " +
                   "packets than were sent");
    }
    links_.delivered += s.packets_delivered;
    links_.bytes += s.bytes_delivered.bytes();
    links_.dropped += dropped;
  }

  // Every access and backbone link of a conference that is about to go.
  void ReadLinks(uint64_t id) {
    gso::conference::Conference* conf = service_.Get(id);
    if (conf == nullptr) return;
    for (const gso::ClientId& member : conf->member_ids()) {
      AddLinks(conf, member);
    }
    for (int from = 0; from < 8; ++from) {
      for (int to = 0; to < 8; ++to) {
        if (gso::sim::Link* link = conf->inter_node_link(from, to)) {
          AddLink(*link);
        }
      }
    }
  }

  // A node's solves either commit or are shed, so a rise in attempts
  // minus sheds since the last slice means one solve committed at this
  // slice's drain, and last_problem() is the problem it solved.
  void ReadCommits(bool measure) {
    for (auto& [id, tracked] : tracked_) {
      gso::conference::Conference* conf = service_.Get(id);
      if (conf == nullptr) continue;
      const gso::conference::ConferenceNode& node = conf->control();
      const int commits = node.orchestration_count() - node.solves_shed();
      if (commits == tracked.commits) continue;
      tracked.commits = commits;
      const gso::core::OrchestrationProblem& problem = node.last_problem();
      const gso::core::Solution& committed = node.last_solution();
      const bool sampled =
          options_.check_all || ++commits_read_ % kCheckEvery == 0;
      if (sampled) {
        const std::string error = CheckSolution(problem, committed);
        if (!error.empty()) result_.Fail("committed solution: " + error);
      }
      if (options_.trace) {
        Replay(tracked, problem, committed, measure);
      } else if (sampled) {
        const gso::core::Orchestrator fresh(&solver_);
        const std::string diff = CompareSolutions(
            committed, fresh.Solve(gso::core::SolveRequest::Cold(problem)));
        if (!diff.empty()) {
          result_.Fail("a cold re-solve differs from the committed " + diff);
        }
      }
      if (!measure) continue;
      const gso::core::SolveStats& s = committed.stats;
      decision_ms_.push_back(s.total_wall_us / 1e3);
      compile_us_ += s.compile_wall_us;
      warm_diff_us_ += s.warm_diff_wall_us;
      step1_us_ += s.step1_wall_us;
      step2_us_ += s.step2_wall_us;
      step3_us_ += s.step3_wall_us;
      knapsacks_ += s.knapsack_solves;
      iterations_ += s.iterations;
      cache_hits_ += s.step1_cache_hits;
      qoe_ += committed.total_qoe;
      subscriptions_ += static_cast<int64_t>(problem.subscriptions.size());
    }
  }

  // Traced runs: the committed problem re-solved warm on the conference's
  // replica must give the committed solution bit for bit; the re-solve is
  // timed as core.fleet_solve_ms, and the change since the previous commit
  // is classified into the solve mix.
  void Replay(Tracked& tracked, const gso::core::OrchestrationProblem& problem,
              const gso::core::Solution& committed, bool measure) {
    const Clock::time_point start = Clock::now();
    const gso::core::Solution& replayed =
        tracked.replica->Solve(gso::core::SolveRequest::Warm(problem));
    const double seconds = SecondsSince(start);
    const std::string diff = CompareSolutions(committed, replayed);
    if (!diff.empty()) {
      result_.Fail("a warm re-solve differs from the committed " + diff);
    }
    if (!measure) {
      tracked.last_problem = problem;
      return;
    }
    replay_ms_.push_back(seconds * 1e3);
    if (tracked.last_problem.has_value()) {
      mix_.Add(*tracked.last_problem, problem);
    }
    tracked.last_problem = problem;
  }

  void CheckConservation();

  const Options& options_;
  Result& result_;
  // Meeting sizes, lifetimes and fault waves come from one fixed schedule;
  // the seed draws each meeting's simulation (access networks, losses).
  gso::Rng schedule_;
  gso::Rng rng_;
  gso::core::DpMckpSolver solver_;
  gso::service::OrchestrationService service_;
  std::map<uint64_t, Tracked> tracked_;
  Timestamp next_wave_ = Timestamp::Zero() + kWavePeriod;
  bool measuring_ = false;
  uint64_t operations_ = 0;
  uint64_t commits_read_ = 0;
  uint64_t committed_in_storm_ = 0;
  double service_seconds_ = 0.0;
  double conference_seconds_ = 0.0;
  std::vector<double> slice_ms_;
  std::vector<double> admit_us_;
  std::vector<double> remove_us_;
  std::vector<double> decision_ms_;
  std::vector<double> replay_ms_;
  SolveMix mix_;
  double compile_us_ = 0.0;
  double warm_diff_us_ = 0.0;
  double step1_us_ = 0.0;
  double step2_us_ = 0.0;
  double step3_us_ = 0.0;
  int64_t knapsacks_ = 0;
  int64_t iterations_ = 0;
  int64_t cache_hits_ = 0;
  double qoe_ = 0.0;
  int64_t subscriptions_ = 0;
  LinkTotals links_;
};

void Storm::CheckConservation() {
  for (int i = 0; i < service_.num_shards(); ++i) {
    gso::service::Shard& shard = service_.shard(i);
    const gso::service::SolveQueueStats& q = shard.queue_stats();
    if (q.accepted != q.solved + q.shed_displaced + q.shed_abandoned +
                          q.stale_dropped +
                          static_cast<uint64_t>(shard.queue_depth())) {
      result_.Fail("shard " + std::to_string(i) +
                   ": accepted solves are not all solved, shed or queued");
    }
  }
  const gso::service::FleetReport report = service_.Report();
  if (service_.admitted() !=
      static_cast<uint64_t>(report.completed + report.live)) {
    result_.Fail("admitted conferences are not all completed or live");
  }
  if (service_.rejected() != 0) result_.Fail("the service refused admissions");
  if (service_.conference_count() != kTargetConcurrent) {
    result_.Fail("the storm ended below its target concurrency");
  }
}

void Storm::Finish(double setup_s) {
  // Live conferences' links count too.
  for (const auto& [id, tracked] : tracked_) ReadLinks(id);
  CheckConservation();
  const gso::service::FleetReport report = service_.Report();
  uint64_t shed = 0;
  uint64_t batches = 0;
  for (int i = 0; i < service_.num_shards(); ++i) {
    const gso::service::SolveQueueStats& q = service_.shard(i).queue_stats();
    shed += q.shed_rejected + q.shed_displaced + q.shed_abandoned;
    batches += q.batches;
  }
  const double solved = static_cast<double>(Solved());
  const double decisions = static_cast<double>(decision_ms_.size());
  const double qoe_mean = qoe_ / static_cast<double>(subscriptions_);
  // Slice wall time not spent in the service's own solves, per delivered
  // packet.
  double slice_s = 0.0;
  for (const double ms : slice_ms_) slice_s += ms / 1e3;
  double solve_s = 0.0;
  for (const double ms : decision_ms_) solve_s += ms / 1e3;
  double replay_s = 0.0;
  for (const double ms : replay_ms_) replay_s += ms / 1e3;
  if (options_.trace) mix_.Print();

  result_.attempted = operations_ + slice_ms_.size();
  result_.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"decision_ms_p50", Percentile(decision_ms_, 50), "ms"},
      {"decision_ms_p90", Percentile(decision_ms_, 90), "ms"},
      {"decisions_per_s",
       static_cast<double>(committed_in_storm_) / service_seconds_, "1/s"},
      {"qoe_mean", qoe_mean, "QoE"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  result_.per_layer = {
      {"core.compile_us", compile_us_ / decisions, "us"},
      {"core.warm_diff_us", warm_diff_us_ / decisions, "us"},
      {"core.step1_us", step1_us_ / decisions, "us"},
      {"core.step2_us", step2_us_ / decisions, "us"},
      {"core.step3_us", step3_us_ / decisions, "us"},
      {"core.knapsacks", static_cast<double>(knapsacks_) / decisions, "count"},
      {"core.iterations", static_cast<double>(iterations_) / decisions,
       "count"},
      {"core.step1_cache_hits", static_cast<double>(cache_hits_) / decisions,
       "count"},
      {"core.fleet_solve_ms",
       replay_s * 1e3 / static_cast<double>(replay_ms_.size()), "ms"},
      {"fleet.conf_seconds_per_s", conference_seconds_ / service_seconds_,
       "1/s"},
      {"fleet.satisfaction_mean", report.mean_satisfaction, "score"},
      {"service.slice_ms_p50", Percentile(slice_ms_, 50), "ms"},
      {"service.slice_ms_p90", Percentile(slice_ms_, 90), "ms"},
      {"service.admit_us_p50", Percentile(admit_us_, 50), "us"},
      {"service.remove_us_p50", Percentile(remove_us_, 50), "us"},
      {"service.solves_committed", solved, "count"},
      {"service.solves_shed", static_cast<double>(shed), "count"},
      {"service.batch_mean", solved / static_cast<double>(batches), "count"},
      {"sim.packets_delivered", static_cast<double>(links_.delivered),
       "count"},
      {"sim.bytes_delivered", static_cast<double>(links_.bytes), "bytes"},
      {"sim.packets_dropped", static_cast<double>(links_.dropped), "count"},
      {"sim.ns_per_packet",
       (slice_s - solve_s) * 1e9 / static_cast<double>(links_.delivered),
       "ns"},
  };
  result_.exact = {
      {"service.solves_committed", solved, "count"},
      {"service.solves_shed", static_cast<double>(shed), "count"},
      {"sim.packets_delivered", static_cast<double>(links_.delivered),
       "count"},
      {"fleet.satisfaction_mean", report.mean_satisfaction, "score"},
      {"qoe_mean", qoe_mean, "QoE"},
      {"core.knapsacks", static_cast<double>(knapsacks_) / decisions, "count"},
  };
}

}  // namespace

Result RunFleetStorm(const Options& options) {
  Result result;
  Storm storm(options, result);
  storm.Ramp();
  const double setup_s = SecondsSince(options.process_start);
  storm.Run(std::max(1, static_cast<int>(options.seconds * kVirtualPerSecond)));
  storm.Finish(setup_s);
  return result;
}

}  // namespace perfbench
