// Tests for the Knapsack-Merge-Reduction control algorithm, including the
// paper's Table 1 worked examples and the Fig. 3 motivating scenarios.
#include "core/orchestrator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bench/support.h"
#include "core/brute_force.h"
#include "core/mckp.h"
#include "core/types.h"

namespace gso::core {
namespace {

const ClientId kA{1};
const ClientId kB{2};
const ClientId kC{3};

SourceId Cam(ClientId c) { return SourceId{c, SourceKind::kCamera}; }

// Builds the Table 1 scenario: three clients, each subscribing to the
// other two, all using the paper's exact ladder.
OrchestrationProblem Table1Problem(DataRate a_up, DataRate a_down,
                                   DataRate b_up, DataRate b_down,
                                   DataRate c_up, DataRate c_down) {
  OrchestrationProblem p;
  p.budgets = {{kA, a_up, a_down}, {kB, b_up, b_down}, {kC, c_up, c_down}};
  for (ClientId c : {kA, kB, kC}) {
    p.capabilities.push_back({Cam(c), Table1Ladder()});
  }
  // Subscriptions from Table 1 (identical in all three cases):
  // A-sub-B-360P, A-sub-C-180P; B-sub-A-720P, B-sub-C-360P;
  // C-sub-B-360P, C-sub-A-720P.
  p.subscriptions = {
      {kA, Cam(kB), kResolution360p, 1.0, 0},
      {kA, Cam(kC), kResolution180p, 1.0, 0},
      {kB, Cam(kA), kResolution720p, 1.0, 0},
      {kB, Cam(kC), kResolution360p, 1.0, 0},
      {kC, Cam(kB), kResolution360p, 1.0, 0},
      {kC, Cam(kA), kResolution720p, 1.0, 0},
  };
  return p;
}

// Returns the bitrate the source publishes at `res`, or zero.
DataRate PublishedAt(const Solution& s, SourceId source, Resolution res) {
  const auto it = s.publish.find(source);
  if (it == s.publish.end()) return DataRate::Zero();
  for (const auto& stream : it->second) {
    if (stream.resolution == res) return stream.bitrate;
  }
  return DataRate::Zero();
}

TEST(OrchestratorTable1, Case1DownlinkLimited) {
  // Case 1: C's downlink is limited to 500 kbps.
  const auto p = Table1Problem(
      DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSecF(1.4),
      DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(3),
      DataRate::MegabitsPerSec(5), DataRate::KilobitsPerSec(500));
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");

  // Paper's final solution: A publishes 720P@1.5M and 360P@400K;
  // B publishes 360P@800K and 180P@100K; C publishes 360P@800K, 180P@300K.
  EXPECT_EQ(PublishedAt(s, Cam(kA), kResolution720p),
            DataRate::MegabitsPerSecF(1.5));
  EXPECT_EQ(PublishedAt(s, Cam(kA), kResolution360p),
            DataRate::KilobitsPerSec(400));
  EXPECT_EQ(PublishedAt(s, Cam(kB), kResolution360p),
            DataRate::KilobitsPerSec(800));
  EXPECT_EQ(PublishedAt(s, Cam(kB), kResolution180p),
            DataRate::KilobitsPerSec(100));
  EXPECT_EQ(PublishedAt(s, Cam(kC), kResolution360p),
            DataRate::KilobitsPerSec(800));
  EXPECT_EQ(PublishedAt(s, Cam(kC), kResolution180p),
            DataRate::KilobitsPerSec(300));
}

TEST(OrchestratorTable1, Case2UplinkLimited) {
  // Case 2: B's uplink is limited to 600 kbps.
  const auto p = Table1Problem(
      DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5),
      DataRate::KilobitsPerSec(600), DataRate::MegabitsPerSec(5),
      DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5));
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");

  EXPECT_EQ(PublishedAt(s, Cam(kA), kResolution720p),
            DataRate::MegabitsPerSecF(1.5));
  EXPECT_EQ(PublishedAt(s, Cam(kA), kResolution360p), DataRate::Zero());
  EXPECT_EQ(PublishedAt(s, Cam(kB), kResolution360p),
            DataRate::KilobitsPerSec(600));
  EXPECT_EQ(PublishedAt(s, Cam(kC), kResolution360p),
            DataRate::KilobitsPerSec(800));
  EXPECT_EQ(PublishedAt(s, Cam(kC), kResolution180p),
            DataRate::KilobitsPerSec(300));
}

TEST(OrchestratorTable1, Case3UplinkAndDownlinkLimited) {
  // Case 3: B's uplink (600 kbps) and downlink (700 kbps) are limited.
  const auto p = Table1Problem(
      DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5),
      DataRate::KilobitsPerSec(600), DataRate::KilobitsPerSec(700),
      DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5));
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");

  // Common to both co-optimal solutions (see below): A's 720p at 1.5M for
  // C, and B fixed down to 600K by the Step-3 uplink repair.
  EXPECT_EQ(PublishedAt(s, Cam(kA), kResolution720p),
            DataRate::MegabitsPerSecF(1.5));
  EXPECT_EQ(PublishedAt(s, Cam(kB), kResolution360p),
            DataRate::KilobitsPerSec(600));

  // B's 700 kbps downlink admits two QoE-equal (660) fillings:
  //   (a) A@360p/400K + C@180p/300K  — the paper's Table 1 solution;
  //   (b) A@180p/300K + C@360p/400K  — its mirror.
  // Both are optimal; accept either, and pin the objective value.
  const bool paper_solution =
      PublishedAt(s, Cam(kA), kResolution360p) ==
          DataRate::KilobitsPerSec(400) &&
      PublishedAt(s, Cam(kC), kResolution180p) ==
          DataRate::KilobitsPerSec(300) &&
      PublishedAt(s, Cam(kC), kResolution360p) == DataRate::Zero();
  const bool mirror_solution =
      PublishedAt(s, Cam(kA), kResolution180p) ==
          DataRate::KilobitsPerSec(300) &&
      PublishedAt(s, Cam(kC), kResolution360p) ==
          DataRate::KilobitsPerSec(400);
  EXPECT_TRUE(paper_solution || mirror_solution);
  EXPECT_NEAR(s.total_qoe, 3220.0, 1e-6);
}

TEST(Orchestrator, Fig3aStopsUnsubscribedStream) {
  // Fig. 3a/3d: pub1 pushes 1.5M/600K/300K but subscribers only need 600K
  // and 300K; GSO tells pub1 to stop the 1.5M stream.
  OrchestrationProblem p;
  const ClientId pub{1}, sub1{2}, sub2{3};
  p.budgets = {{pub, DataRate::MegabitsPerSec(3), DataRate::MegabitsPerSec(10)},
               {sub1, DataRate::MegabitsPerSec(5),
                DataRate::KilobitsPerSec(320)},
               {sub2, DataRate::MegabitsPerSec(5),
                DataRate::KilobitsPerSec(620)}};
  p.capabilities = {{Cam(pub), CoarseLadder()}};
  p.subscriptions = {{sub1, Cam(pub), kResolution720p, 1.0, 0},
                     {sub2, Cam(pub), kResolution720p, 1.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  // 720p (1.5M) must not be published: nobody can receive it.
  EXPECT_EQ(PublishedAt(s, Cam(pub), kResolution720p), DataRate::Zero());
  EXPECT_EQ(PublishedAt(s, Cam(pub), kResolution360p),
            DataRate::KilobitsPerSec(600));
  EXPECT_EQ(PublishedAt(s, Cam(pub), kResolution180p),
            DataRate::KilobitsPerSec(300));
}

TEST(Orchestrator, Fig3bFineBitrateFitsDownlink) {
  // Fig. 3b/3e: sub1 has 1.45 Mbps downlink; with a fine ladder GSO sends
  // ~1.4 Mbps instead of falling back to 600 kbps.
  OrchestrationProblem p;
  const ClientId pub{1}, sub1{2};
  p.budgets = {{pub, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)},
               {sub1, DataRate::MegabitsPerSec(5),
                DataRate::MegabitsPerSecF(1.45)}};
  p.capabilities = {{Cam(pub),
                     BuildLadder({{kResolution720p,
                                   DataRate::KilobitsPerSec(600),
                                   DataRate::MegabitsPerSecF(1.5), 10}})}};
  p.subscriptions = {{sub1, Cam(pub), kResolution720p, 1.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  const DataRate sent = PublishedAt(s, Cam(pub), kResolution720p);
  EXPECT_GE(sent, DataRate::MegabitsPerSecF(1.3));
  EXPECT_LE(sent, DataRate::MegabitsPerSecF(1.45));
}

TEST(Orchestrator, Fig3cFairStreamCompetition) {
  // Fig. 3c/3f: sub1 has 2.05 Mbps downlink and subscribes to two
  // publishers. Coarse simulcast gives 1.5M + 300K (uneven); with a fine
  // ladder GSO splits the bandwidth about evenly (~1M + ~1M).
  OrchestrationProblem p;
  const ClientId pub1{1}, pub2{2}, sub1{3};
  p.budgets = {
      {pub1, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)},
      {pub2, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)},
      {sub1, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSecF(2.05)}};
  const auto ladder = BuildLadder({{kResolution720p,
                                    DataRate::KilobitsPerSec(300),
                                    DataRate::MegabitsPerSecF(1.5), 13}});
  p.capabilities = {{Cam(pub1), ladder}, {Cam(pub2), ladder}};
  p.subscriptions = {{sub1, Cam(pub1), kResolution720p, 1.0, 0},
                     {sub1, Cam(pub2), kResolution720p, 1.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  const DataRate r1 = PublishedAt(s, Cam(pub1), kResolution720p);
  const DataRate r2 = PublishedAt(s, Cam(pub2), kResolution720p);
  // Concave utility drives the split toward balance: the smaller share is
  // at least 2/3 of the larger.
  EXPECT_GT(r1.bps(), 0);
  EXPECT_GT(r2.bps(), 0);
  const double ratio = std::min(r1.bps(), r2.bps()) /
                       static_cast<double>(std::max(r1.bps(), r2.bps()));
  EXPECT_GE(ratio, 0.66);
}

TEST(Orchestrator, EmptyProblem) {
  OrchestrationProblem p;
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_TRUE(s.publish.empty());
  EXPECT_EQ(s.total_qoe, 0.0);
  EXPECT_EQ(ValidateSolution(p, s), "");
}

TEST(Orchestrator, SelfSubscriptionIgnored) {
  OrchestrationProblem p;
  p.budgets = {{kA, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)}};
  p.capabilities = {{Cam(kA), CoarseLadder()}};
  p.subscriptions = {{kA, Cam(kA), kResolution720p, 1.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_TRUE(s.publish.empty());
}

TEST(Orchestrator, ZeroDownlinkGetsNothing) {
  OrchestrationProblem p;
  p.budgets = {{kA, DataRate::MegabitsPerSec(5), DataRate::Zero()},
               {kB, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)}};
  p.capabilities = {{Cam(kB), CoarseLadder()}};
  p.subscriptions = {{kA, Cam(kB), kResolution720p, 1.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  EXPECT_TRUE(s.publish.empty());
}

TEST(Orchestrator, PriorityProtectsSpeakerStream) {
  // Two publishers compete for a tight downlink; the speaker's priority
  // weight must keep the speaker's stream in the solution.
  OrchestrationProblem p;
  const ClientId speaker{1}, other{2}, viewer{3};
  p.budgets = {
      {speaker, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)},
      {other, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)},
      {viewer, DataRate::MegabitsPerSec(5), DataRate::KilobitsPerSec(350)}};
  p.capabilities = {{Cam(speaker), CoarseLadder()},
                    {Cam(other), CoarseLadder()}};
  p.subscriptions = {{viewer, Cam(speaker), kResolution720p, 4.0, 0},
                     {viewer, Cam(other), kResolution720p, 1.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  // Only one 300K stream fits; priority must pick the speaker.
  EXPECT_EQ(PublishedAt(s, Cam(speaker), kResolution180p),
            DataRate::KilobitsPerSec(300));
  EXPECT_EQ(PublishedAt(s, Cam(other), kResolution180p), DataRate::Zero());
}

TEST(Orchestrator, VirtualPublisherSpeakerFirstTwoStreams) {
  // §4.4: a subscriber takes a high-res view (slot 0) plus a thumbnail
  // (slot 1) from the same camera; the two merge into the publisher's
  // ladder as two published resolutions.
  OrchestrationProblem p;
  const ClientId speaker{1}, viewer{2};
  p.budgets = {
      {speaker, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(5)},
      {viewer, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(3)}};
  p.capabilities = {{Cam(speaker), Table1Ladder()}};
  p.subscriptions = {{viewer, Cam(speaker), kResolution720p, 2.0, 0},
                     {viewer, Cam(speaker), kResolution180p, 1.0, 1}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  EXPECT_EQ(PublishedAt(s, Cam(speaker), kResolution720p),
            DataRate::MegabitsPerSecF(1.5));
  EXPECT_EQ(PublishedAt(s, Cam(speaker), kResolution180p),
            DataRate::KilobitsPerSec(300));
}

TEST(Orchestrator, ScreenShareIsSeparateSource) {
  // §4.4 footnote: screen share has its own SSRC/ladder and never merges
  // with the camera.
  OrchestrationProblem p;
  const ClientId presenter{1}, viewer{2};
  const SourceId screen{presenter, SourceKind::kScreen};
  p.budgets = {
      {presenter, DataRate::MegabitsPerSec(3), DataRate::MegabitsPerSec(5)},
      {viewer, DataRate::MegabitsPerSec(5), DataRate::MegabitsPerSec(3)}};
  p.capabilities = {{Cam(presenter), CoarseLadder()},
                    {screen,
                     BuildLadder({{kResolution1080p,
                                   DataRate::KilobitsPerSec(800),
                                   DataRate::MegabitsPerSec(2), 5}})}};
  p.subscriptions = {{viewer, Cam(presenter), kResolution360p, 1.0, 0},
                     {viewer, screen, kResolution1080p, 3.0, 0}};
  DpMckpSolver solver;
  Orchestrator orch(&solver);
  const Solution s = orch.Solve(SolveRequest::Cold(p));
  EXPECT_EQ(ValidateSolution(p, s), "");
  EXPECT_GT(PublishedAt(s, screen, kResolution1080p).bps(), 0);
  EXPECT_GT(PublishedAt(s, Cam(presenter), kResolution360p).bps(), 0);
  // Uplink constraint spans both sources of the presenter.
  DataRate total;
  for (const auto& [src, streams] : s.publish) {
    if (src.client == presenter) {
      for (const auto& st : streams) total += st.bitrate;
    }
  }
  EXPECT_LE(total, DataRate::MegabitsPerSec(3));
}

TEST(Orchestrator, BruteForceMatchesDpOnSmallMeshes) {
  // Property: on small instances the DP pipeline attains (near) the
  // brute-force objective; never exceeds it beyond rounding.
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    OrchestrationProblem p;
    const int n = 3;
    for (int i = 1; i <= n; ++i) {
      const ClientId c{static_cast<uint32_t>(i)};
      p.budgets.push_back({c,
                           DataRate::KilobitsPerSec(400 + 377 * seed % 2000),
                           DataRate::KilobitsPerSec(300 + 531 * seed % 2500)});
      p.capabilities.push_back({Cam(c), Table1Ladder()});
      for (int j = 1; j <= n; ++j) {
        if (i == j) continue;
        p.subscriptions.push_back({c,
                                   Cam(ClientId{static_cast<uint32_t>(j)}),
                                   kResolution720p, 1.0, 0});
      }
    }
    DpMckpSolver dp;
    Orchestrator gso(&dp);
    const Solution s_dp = gso.Solve(SolveRequest::Cold(p));
    BruteForceOrchestrator bf;
    const Solution s_bf = bf.Solve(p);
    EXPECT_EQ(ValidateSolution(p, s_dp), "");
    EXPECT_EQ(ValidateSolution(p, s_bf), "");
    EXPECT_LE(s_dp.total_qoe, s_bf.total_qoe + 1e-9) << "seed " << seed;
    EXPECT_GE(s_dp.total_qoe, 0.95 * s_bf.total_qoe) << "seed " << seed;
  }
}

TEST(Orchestrator, NonFinitePrioritiesAreNeverPicked) {
  // A NaN or infinite priority gives every option of that subscription a
  // non-finite knapsack value; the DP treats such items as ineligible
  // instead of quantizing them out of the value grid.
  auto problem = bench::MeshProblem(4, 4, 5, 42);
  problem.subscriptions[0].priority = std::numeric_limits<double>::quiet_NaN();
  problem.subscriptions[1].priority = std::numeric_limits<double>::infinity();
  DpMckpSolver dp;
  Orchestrator gso(&dp);
  const Solution& s = gso.Solve(SolveRequest::Cold(problem));
  EXPECT_EQ(ValidateSolution(problem, s), "");
  EXPECT_TRUE(std::isfinite(s.total_qoe));
  EXPECT_GT(s.total_qoe, 0.0);
}

}  // namespace
}  // namespace gso::core
