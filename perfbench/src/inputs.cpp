#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

using gso::DataRate;
using gso::Resolution;
using gso::Rng;
using gso::core::LadderSpec;
using gso::core::StreamOption;

// controller_cold holds this many meetings of each shape; controller_events
// this many of each standing size.
constexpr int kColdCopies = 2;
constexpr int kStandingCopies = 2;
// Joins stop at this size; leaves stop at three participants.
constexpr size_t kMaxStandingSize = 24;

// Downlink classes of the fleet model (service/fleet_model.h DrawAccess):
// share of participants and downlink capacity range in kbps.
struct DownlinkClass {
  double share;
  int lo_kbps;
  int hi_kbps;
};
constexpr DownlinkClass kDownlinkClasses[] = {
    {0.70, 5000, 20000},  // good
    {0.20, 1000, 5000},   // medium
    {0.10, 400, 1200},    // slow
};
constexpr double kDownlinkShares[] = {kDownlinkClasses[0].share,
                                      kDownlinkClasses[1].share,
                                      kDownlinkClasses[2].share};
constexpr double kLayoutShares[] = {0.5, 0.3, 0.2};  // gallery, speaker, strip
constexpr int kCameraProfiles = 4;
constexpr double kProfileShares[kCameraProfiles] = {0.25, 0.25, 0.25, 0.25};
// Uplinks that are not tight come from the upper half of the good class:
// enough for every layer a publisher can be asked for.
constexpr int kUplinkLoKbps = 4000;
constexpr int kUplinkHiKbps = 10000;
// Budgets are the drawn capacities less headroom, as the controller
// allocates them.
constexpr double kUtilization = 0.9;
// Who holds which layout, class and camera profile, who presents and who
// is tight come from this fixed seed; --seed draws only numbers (ladder
// bitrates, budgets, how far reports move them). Drawing the roles from
// the seed too made a seed's costs move p90 by tens of per cent.
constexpr uint64_t kStructureSeed = 0x57a9c7ull;

// controller_events' event mix. The shares of membership changes and of
// bandwidth reports, how many budgets a report moves and by how much are
// measured on fleet_storm: its traced run classifies what changed between
// each conference's consecutive committed problems (README.md, "Event
// mix"). The fleet model has no speakers or layouts, so those two shares
// are assumptions: a new speaker every 20 s of meeting and a view change
// per participant every few minutes, at the fleet's one commit per
// conference-second.
constexpr double kJoinShare = 0.001;
constexpr double kLeaveShare = 0.001;
constexpr double kSpeakerShare = 0.05;
constexpr double kLayoutShare = 0.025;
// Share of budgets a report commit moves, uplink and downlink.
constexpr double kUplinkMoves = 0.74;
constexpr double kDownlinkMoves = 0.78;
// Deciles (0th to 100th percentile) of |ln(new / old)| over the budgets
// that moved. The fleet's moves are mostly upward, as its short meetings
// ramp their estimates; a standing meeting cannot drift up for ever, so a
// move here goes up or down with equal odds and stays within its class.
constexpr double kMoveDeciles[] = {0.000, 0.004, 0.015, 0.041, 0.071, 0.330,
                                   0.417, 0.448, 0.485, 0.551, 1.431};

size_t PickIndex(Rng& rng, size_t size) {
  return static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(size) - 1));
}

DataRate Kbps(Rng& rng, int lo, int hi) {
  return DataRate::KilobitsPerSec(rng.UniformInt(lo, hi)) * kUtilization;
}

// n labels, label k about shares[k] * n times (rounded; any shortfall goes
// to label 0), shuffled.
template <size_t N>
std::vector<int> StratifiedLabels(Rng& rng, const double (&shares)[N], int n) {
  std::vector<int> labels;
  for (size_t k = 0; k < N; ++k) {
    const int count = static_cast<int>(shares[k] * n + 0.5);
    for (int i = 0; i < count && static_cast<int>(labels.size()) < n; ++i) {
      labels.push_back(static_cast<int>(k));
    }
  }
  while (static_cast<int>(labels.size()) < n) labels.push_back(0);
  for (size_t i = labels.size(); i > 1; --i) {
    std::swap(labels[i - 1], labels[PickIndex(rng, i)]);
  }
  return labels;
}

template <size_t N>
int DrawLabel(Rng& rng, const double (&shares)[N]) {
  double u = rng.NextDouble();
  for (size_t k = 0; k + 1 < N; ++k) {
    if (u < shares[k]) return static_cast<int>(k);
    u -= shares[k];
  }
  return static_cast<int>(N - 1);
}

LadderSpec DrawSpec(Rng& rng, Resolution resolution, int lo_kbps, int hi_kbps,
                    double floor, int levels) {
  LadderSpec spec;
  spec.resolution = resolution;
  spec.max_bitrate =
      DataRate::KilobitsPerSec(rng.UniformInt(lo_kbps, hi_kbps));
  spec.min_bitrate = spec.max_bitrate * floor;
  spec.levels = levels;
  return spec;
}

// Camera profile k has 3 + k, 3 + (k + 1) % 4 and 3 + (k + 2) % 4 levels
// at 720p, 360p and 180p; the seed jitters the bitrate ranges only, so
// every seed's Step-1 tables are alike in size.
std::vector<std::vector<StreamOption>> DrawCameraProfiles(Rng& rng) {
  std::vector<std::vector<StreamOption>> profiles;
  for (int k = 0; k < kCameraProfiles; ++k) {
    profiles.push_back(gso::core::BuildLadder(
        {DrawSpec(rng, gso::kResolution720p, 1800, 2200, 0.4, 3 + k),
         DrawSpec(rng, gso::kResolution360p, 720, 880, 0.4, 3 + (k + 1) % 4),
         DrawSpec(rng, gso::kResolution180p, 250, 300, 0.3,
                  3 + (k + 2) % 4)}));
  }
  return profiles;
}

std::vector<StreamOption> DrawScreenLadder(Rng& rng) {
  return gso::core::BuildLadder(
      {DrawSpec(rng, gso::kResolution1080p, 2200, 2600, 0.5, 4),
       DrawSpec(rng, gso::kResolution720p, 1000, 1200, 0.5, 3),
       DrawSpec(rng, gso::kResolution360p, 400, 500, 0.5, 3)});
}

void DrawDownlink(Rng& rng, int downlink_class, Participant& p) {
  const DownlinkClass& c = kDownlinkClasses[downlink_class];
  p.downlink_class = downlink_class;
  p.downlink = Kbps(rng, c.lo_kbps, c.hi_kbps);
}

DataRate MinBitrate(const MeetingModel& meeting, const Participant& p,
                    Resolution resolution) {
  DataRate lowest = DataRate::PlusInfinity();
  for (const StreamOption& o :
       meeting.camera_profiles[static_cast<size_t>(p.camera_profile)]) {
    if (o.resolution == resolution) lowest = std::min(lowest, o.bitrate);
  }
  return lowest;
}

// A tight uplink is just under the lowest bitrate of `layer`.
void MakeTight(Rng& rng, const MeetingModel& meeting, Participant& p,
               Resolution layer) {
  p.tight = true;
  p.uplink = MinBitrate(meeting, p, layer) * rng.Uniform(0.8, 0.95);
}

Participant DrawParticipant(Rng& rng, const MeetingModel& meeting,
                            bool publishes, int downlink_class, Layout layout,
                            int camera_profile) {
  Participant p;
  p.id = meeting.next_id;
  p.publishes = publishes;
  DrawDownlink(rng, downlink_class, p);
  p.uplink = Kbps(rng, kUplinkLoKbps, kUplinkHiKbps);
  p.camera_profile = camera_profile;
  p.layout = layout;
  return p;
}

// Speakers and screen sharers are publishers on good downlinks that are
// not tight; `other` is excluded.
Participant& PickPresenter(Rng& structure, MeetingModel& meeting,
                           uint32_t other) {
  std::vector<size_t> good;
  std::vector<size_t> any;
  for (size_t i = 0; i < meeting.participants.size(); ++i) {
    const Participant& p = meeting.participants[i];
    if (!p.publishes || p.tight || p.id == other) continue;
    any.push_back(i);
    if (p.downlink_class == 0) good.push_back(i);
  }
  const std::vector<size_t>& from = good.empty() ? any : good;
  return meeting.participants[from[PickIndex(structure, from.size())]];
}

// `publishers` publishing and `viewers` viewing participants with downlink
// classes, layouts and camera profiles in fixed proportions, a speaker and
// (with `screen`) a screen sharer. `structure` decides who is what; `rng`
// draws the ladders' bitrates and the budgets.
MeetingModel Populate(Rng& structure, Rng& rng, int publishers, int viewers,
                      bool screen) {
  MeetingModel meeting;
  meeting.camera_profiles = DrawCameraProfiles(rng);
  meeting.screen_ladder = DrawScreenLadder(rng);
  const int n = publishers + viewers;
  const std::vector<int> classes =
      StratifiedLabels(structure, kDownlinkShares, n);
  const std::vector<int> layouts = StratifiedLabels(structure, kLayoutShares, n);
  const std::vector<int> profiles =
      StratifiedLabels(structure, kProfileShares, n);
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    meeting.participants.push_back(DrawParticipant(
        rng, meeting, static_cast<int>(i) < publishers, classes[i],
        static_cast<Layout>(layouts[i]), profiles[i]));
    ++meeting.next_id;
  }
  meeting.speaker = PickPresenter(structure, meeting, 0).id;
  if (screen) {
    PickPresenter(structure, meeting, meeting.speaker).sharing_screen = true;
  }
  return meeting;
}

Participant& Speaker(MeetingModel& meeting) {
  for (Participant& p : meeting.participants) {
    if (p.id == meeting.speaker) return p;
  }
  return meeting.participants.front();
}

Resolution GalleryCap(int publishers) {
  if (publishers <= 4) return gso::kResolution720p;
  if (publishers <= 12) return gso::kResolution360p;
  return gso::kResolution180p;
}

}  // namespace

gso::core::OrchestrationProblem BuildProblem(const MeetingModel& meeting) {
  using gso::ClientId;
  using gso::core::SourceKind;
  gso::core::OrchestrationProblem problem;
  int publishers = 0;
  for (const Participant& p : meeting.participants) {
    problem.budgets.push_back({ClientId(p.id), p.uplink, p.downlink});
    if (!p.publishes) continue;
    ++publishers;
    problem.capabilities.push_back(
        {{ClientId(p.id), SourceKind::kCamera},
         meeting.camera_profiles[static_cast<size_t>(p.camera_profile)]});
    if (p.sharing_screen) {
      problem.capabilities.push_back(
          {{ClientId(p.id), SourceKind::kScreen}, meeting.screen_ladder});
    }
  }
  const Resolution gallery = GalleryCap(publishers);
  for (const Participant& s : meeting.participants) {
    const ClientId subscriber(s.id);
    for (const Participant& p : meeting.participants) {
      if (!p.publishes || p.id == s.id) continue;
      const gso::core::SourceId camera{ClientId(p.id), SourceKind::kCamera};
      const bool speaker = p.id == meeting.speaker;
      if (s.layout == Layout::kGallery) {
        problem.subscriptions.push_back(
            {subscriber, camera, gallery, speaker ? kSpeakerPriority : 1.0, 0});
      } else if (speaker) {
        problem.subscriptions.push_back(
            {subscriber, camera, gso::kResolution720p, kSpeakerPriority, 0});
        if (s.layout == Layout::kSpeakerStrip) {
          problem.subscriptions.push_back(
              {subscriber, camera, gso::kResolution180p, 1.0, 1});
        }
      } else {
        problem.subscriptions.push_back(
            {subscriber, camera, gso::kResolution180p, 1.0, 0});
      }
      if (p.sharing_screen) {
        problem.subscriptions.push_back({subscriber,
                                         {ClientId(p.id), SourceKind::kScreen},
                                         gso::kResolution1080p,
                                         kScreenPriority,
                                         0});
      }
    }
  }
  return problem;
}

std::vector<MeetingModel> ColdMeetings(uint64_t seed) {
  Rng structure(kStructureSeed);
  Rng rng(seed ^ 0xc01dc01dull);
  std::vector<MeetingModel> meetings;
  for (int copy = 0; copy < kColdCopies; ++copy) {
    const size_t first = meetings.size();
    for (int size = 16; size <= 64; size += 4) {
      meetings.push_back(
          Populate(structure, rng, size, 0, /*screen=*/size % 8 == 0));
    }
    meetings.push_back(Populate(structure, rng, 10, 200, /*screen=*/true));
    if (copy != 0) continue;
    for (size_t i = first; i < meetings.size(); ++i) {
      MakeTight(rng, meetings[i], Speaker(meetings[i]), gso::kResolution720p);
    }
  }
  return meetings;
}

std::vector<gso::core::OrchestrationProblem> EnumerableProblems(
    uint64_t seed) {
  Rng rng(seed ^ 0xb27eull);
  std::vector<gso::core::OrchestrationProblem> problems;
  for (int participants = 3; participants <= 4; ++participants) {
    for (const bool screen : {false, true}) {
      MeetingModel meeting = Populate(rng, rng, participants, 0, screen);
      // Three levels per resolution keeps each subscriber's enumeration
      // under a million combinations.
      for (auto& profile : meeting.camera_profiles) {
        profile = gso::core::BuildLadder(
            {DrawSpec(rng, gso::kResolution720p, 1500, 2500, 0.4, 3),
             DrawSpec(rng, gso::kResolution360p, 600, 1000, 0.4, 3),
             DrawSpec(rng, gso::kResolution180p, 200, 350, 0.3, 3)});
      }
      for (Participant& p : meeting.participants) {
        p.uplink = DataRate::MegabitsPerSec(1000);  // no Reduction
      }
      problems.push_back(BuildProblem(meeting));
    }
  }
  return problems;
}

std::vector<MeetingModel> StandingMeetings(uint64_t seed) {
  Rng structure(kStructureSeed + 1);
  Rng rng(seed ^ 0xe7e27ull);
  std::vector<MeetingModel> meetings;
  for (int copy = 0; copy < kStandingCopies; ++copy) {
    for (const int size : {3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 10,
                           11, 12, 14, 16}) {
      meetings.push_back(
          Populate(structure, rng, size, 0, /*screen=*/size % 4 == 0));
      MeetingModel& meeting = meetings.back();
      if (meetings.size() % 2 == 0) continue;
      // One member other than the presenters gets a tight uplink.
      std::vector<size_t> members;
      for (size_t i = 0; i < meeting.participants.size(); ++i) {
        const Participant& p = meeting.participants[i];
        if (p.id != meeting.speaker && !p.sharing_screen) members.push_back(i);
      }
      MakeTight(rng, meeting,
                meeting.participants[members[PickIndex(structure,
                                                       members.size())]],
                gso::kResolution360p);
    }
  }
  return meetings;
}

namespace {

// One budget move: a size drawn from kMoveDeciles by inverse transform,
// either way, within [lo, hi].
gso::DataRate Move(Rng& rng, gso::DataRate rate, gso::DataRate lo,
                   gso::DataRate hi) {
  const double position = rng.NextDouble() * 10.0;
  const int decile = std::min(9, static_cast<int>(position));
  const double frac = position - decile;
  double size = kMoveDeciles[decile] * (1.0 - frac) +
                kMoveDeciles[decile + 1] * frac;
  if (rng.Bernoulli(0.5)) size = -size;
  return std::clamp(rate * std::exp(size), lo, hi);
}

}  // namespace

size_t ApplyNextEvent(Rng& schedule, Rng& rng,
                      std::vector<MeetingModel>& meetings) {
  size_t total = 0;
  for (const auto& m : meetings) total += m.participants.size();
  size_t pick = PickIndex(schedule, total);
  size_t index = 0;
  while (pick >= meetings[index].participants.size()) {
    pick -= meetings[index].participants.size();
    ++index;
  }
  MeetingModel& meeting = meetings[index];
  auto& people = meeting.participants;
  double u = schedule.NextDouble();

  if ((u -= kJoinShare) < 0.0) {
    if (people.size() < kMaxStandingSize) {
      const int downlink_class = DrawLabel(schedule, kDownlinkShares);
      const Layout layout =
          static_cast<Layout>(DrawLabel(schedule, kLayoutShares));
      people.push_back(DrawParticipant(rng, meeting, /*publishes=*/true,
                                       downlink_class, layout,
                                       DrawLabel(schedule, kProfileShares)));
      ++meeting.next_id;
    }
    return index;
  }
  if ((u -= kLeaveShare) < 0.0) {
    if (people.size() > 3) {
      // Anyone but the speaker and a tight member may leave; a leaving
      // sharer ends the share.
      std::vector<size_t> leavers;
      for (size_t i = 0; i < people.size(); ++i) {
        if (people[i].id != meeting.speaker && !people[i].tight) {
          leavers.push_back(i);
        }
      }
      people.erase(people.begin() +
                   static_cast<std::ptrdiff_t>(
                       leavers[PickIndex(schedule, leavers.size())]));
    }
    return index;
  }
  if ((u -= kSpeakerShare) < 0.0) {
    meeting.speaker = PickPresenter(schedule, meeting, meeting.speaker).id;
    return index;
  }
  if ((u -= kLayoutShare) < 0.0) {
    Participant& p = people[PickIndex(schedule, people.size())];
    const Layout before = p.layout;
    while (p.layout == before) {
      p.layout = static_cast<Layout>(DrawLabel(schedule, kLayoutShares));
    }
    return index;
  }
  // Bandwidth reports: since the last solve most members' estimates have
  // moved. Which ones is part of the schedule; `rng` draws how far. A
  // tight uplink stays tight.
  for (Participant& p : people) {
    if (schedule.Bernoulli(kDownlinkMoves)) {
      const DownlinkClass& c = kDownlinkClasses[p.downlink_class];
      p.downlink = Move(rng, p.downlink,
                        DataRate::KilobitsPerSec(c.lo_kbps) * kUtilization,
                        DataRate::KilobitsPerSec(c.hi_kbps) * kUtilization);
    }
    if (schedule.Bernoulli(kUplinkMoves)) {
      if (p.tight) {
        MakeTight(rng, meeting, p, gso::kResolution360p);
      } else {
        p.uplink = Move(rng, p.uplink,
                        DataRate::KilobitsPerSec(kUplinkLoKbps) * kUtilization,
                        DataRate::KilobitsPerSec(kUplinkHiKbps) * kUtilization);
      }
    }
  }
  return index;
}

}  // namespace perfbench
