// Seeded input generators for the controller workloads.
//
// A MeetingModel is the bench-side picture of one meeting: participants
// with device ladders, budgets and a view layout, the active speaker and
// any screen share. BuildProblem turns it into the OrchestrationProblem the
// controller sees, applying the speaker-first and screen-share priorities
// the way the conference node does.
//
// Class signatures are shared only as much as real meetings share them:
// four camera profiles per meeting (3-6 levels per resolution), three
// layouts, speaker and thumbnail slots on the same source, a 1080p screen
// ladder, downlinks from the fleet model's good/medium/slow classes.
// Seeds vary numbers, not roles: who holds which profile, layout and
// access class, who presents, who is tight and which events happen come
// from fixed seeds, and only deliberately tight uplinks make the
// controller reduce, so every seed costs about the same.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/types.h"

namespace perfbench {

enum class Layout : uint8_t {
  // Every publisher at the meeting's gallery cap; the speaker raised.
  kGallery = 0,
  // Speaker at 720p, everyone else as a 180p thumbnail.
  kSpeaker = 1,
  // kSpeaker plus a second (thumbnail) slot on the speaker's camera.
  kSpeakerStrip = 2,
};

struct Participant {
  uint32_t id = 0;
  bool publishes = true;  // false for webinar viewers
  int downlink_class = 0;  // 0 good, 1 medium, 2 slow
  // A tight publisher's uplink cannot carry a layer it is asked for, so
  // every solve that asks ends in a Reduction.
  bool tight = false;
  gso::DataRate uplink;
  gso::DataRate downlink;
  int camera_profile = 0;  // index into MeetingModel::camera_profiles
  bool sharing_screen = false;
  Layout layout = Layout::kGallery;
};

struct MeetingModel {
  std::vector<Participant> participants;  // ascending id
  std::vector<std::vector<gso::core::StreamOption>> camera_profiles;
  std::vector<gso::core::StreamOption> screen_ladder;  // 1080p top
  uint32_t speaker = 0;
  uint32_t next_id = 1;
};

// Priority multipliers, as the conference node applies them (§4.4).
inline constexpr double kSpeakerPriority = 3.0;
inline constexpr double kScreenPriority = 4.0;

gso::core::OrchestrationProblem BuildProblem(const MeetingModel& meeting);

// controller_cold: meshes of 16 to 64 in steps of 4 and a 10x200 webinar,
// twice; in the first copy every speaker's uplink is too tight for its
// 720p layer.
std::vector<MeetingModel> ColdMeetings(uint64_t seed);

// Small meetings with loose uplinks (no Reduction can fire) whose Step-1
// knapsacks are small enough for the exhaustive solver.
std::vector<gso::core::OrchestrationProblem> EnumerableProblems(
    uint64_t seed);

// controller_events: standing meetings of 3 to 16 participants, twice
// over; every other meeting has one member whose uplink is too tight for
// its 360p layer.
std::vector<MeetingModel> StandingMeetings(uint64_t seed);

// Draws the next event, applies it and returns the index of the meeting
// it changed. `schedule` picks the meeting, in proportion to its size, and
// the kind: 0.1 % joins, 0.1 % leaves, 5 % speaker changes, 2.5 % layout
// changes, and otherwise a bandwidth report in which about three quarters
// of the members' uplink and downlink budgets move (the mix, and the
// assumptions in it, are set out in inputs.cpp and README.md). `rng` draws
// who and what. With one schedule seed for every run, meeting sizes evolve
// the same way whatever `rng`'s seed.
size_t ApplyNextEvent(gso::Rng& schedule, gso::Rng& rng,
                      std::vector<MeetingModel>& meetings);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
