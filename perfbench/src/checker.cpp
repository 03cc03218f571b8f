#include "checker.h"

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

namespace perfbench {
namespace {

using gso::ClientId;
using gso::DataRate;
using gso::core::PublishedStream;
using gso::core::SourceId;
using gso::core::Subscription;

// Mirrors DpMckpSolver's table cap: beyond 2^16 value cells the quantum
// grows so the grid fits.
constexpr double kValueQuantum = 1.0;
constexpr double kMaxCells = 65536.0;

using EdgeKey = std::tuple<ClientId, SourceId, int>;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string CheckSolution(const gso::core::OrchestrationProblem& problem,
                          const gso::core::Solution& solution) {
  std::map<ClientId, const gso::core::ClientBudget*> budgets;
  for (const auto& b : problem.budgets) budgets[b.client] = &b;
  std::map<SourceId, const gso::core::SourceCapability*> ladders;
  for (const auto& c : problem.capabilities) ladders[c.source] = &c;
  std::map<EdgeKey, const Subscription*> edges;
  for (const auto& sub : problem.subscriptions) {
    if (!edges.emplace(EdgeKey{sub.subscriber, sub.source, sub.slot}, &sub)
             .second) {
      return "input has a duplicated subscription edge";
    }
  }

  std::map<ClientId, int64_t> uplink_bps;
  std::map<ClientId, int64_t> downlink_bps;
  std::set<EdgeKey> served;
  // (subscriber, slot) -> source -> the stream it receives.
  std::map<std::pair<ClientId, int>, std::map<SourceId, const PublishedStream*>>
      received;
  double total_qoe = 0.0;
  for (const auto& [source, streams] : solution.publish) {
    const auto ladder = ladders.find(source);
    if (ladder == ladders.end()) {
      return source.ToString() + " publishes without a capability";
    }
    std::set<gso::Resolution> resolutions;
    for (const PublishedStream& stream : streams) {
      if (!resolutions.insert(stream.resolution).second) {
        return source.ToString() + " publishes two bitrates at " +
               stream.resolution.ToString();
      }
      const gso::core::StreamOption* option = nullptr;
      for (const auto& o : ladder->second->options) {
        if (o.resolution == stream.resolution && o.bitrate == stream.bitrate) {
          option = &o;
        }
      }
      if (option == nullptr) {
        return source.ToString() + " publishes " + stream.bitrate.ToString() +
               "@" + stream.resolution.ToString() + " outside its ladder";
      }
      if (!SameBits(option->qoe, stream.qoe)) {
        return source.ToString() + " reports a QoE its ladder does not give";
      }
      uplink_bps[source.client] += stream.bitrate.bps();
      for (const auto& receiver : stream.receivers) {
        const EdgeKey key{receiver.subscriber, source, receiver.slot};
        const auto edge = edges.find(key);
        if (edge == edges.end()) {
          return receiver.subscriber.ToString() + " receives " +
                 source.ToString() + " without a subscription";
        }
        if (edge->second->max_resolution < stream.resolution) {
          return receiver.subscriber.ToString() + " receives " +
                 stream.resolution.ToString() + " above its cap from " +
                 source.ToString();
        }
        if (!served.insert(key).second) {
          return receiver.subscriber.ToString() +
                 " receives two streams for one subscription to " +
                 source.ToString();
        }
        downlink_bps[receiver.subscriber] += stream.bitrate.bps();
        received[{receiver.subscriber, receiver.slot}][source] = &stream;
        total_qoe += option->qoe * edge->second->priority;
      }
    }
  }

  for (const auto& [client, bps] : uplink_bps) {
    const auto budget = budgets.find(client);
    if (budget == budgets.end() || bps > budget->second->uplink.bps()) {
      return client.ToString() + " publishes " +
             DataRate::BitsPerSec(bps).ToString() + " over its uplink";
    }
  }
  for (const auto& [client, bps] : downlink_bps) {
    const auto budget = budgets.find(client);
    if (budget == budgets.end() || bps > budget->second->downlink.bps()) {
      return client.ToString() + " receives " +
             DataRate::BitsPerSec(bps).ToString() + " over its downlink";
    }
  }

  // The per-subscriber view must name exactly the received streams.
  size_t assigned = 0;
  for (const auto& [key, sources] : solution.per_subscriber) {
    const auto got = received.find(key);
    for (const auto& [source, a] : sources) {
      ++assigned;
      const PublishedStream* stream = nullptr;
      if (got != received.end()) {
        const auto it = got->second.find(source);
        if (it != got->second.end()) stream = it->second;
      }
      if (stream == nullptr || stream->resolution != a.resolution ||
          stream->bitrate != a.bitrate) {
        return key.first.ToString() + " per-subscriber view disagrees with " +
               "the published receivers of " + source.ToString();
      }
    }
  }
  if (assigned != served.size()) {
    return "per-subscriber view lists " + std::to_string(assigned) +
           " assignments, receivers list " + std::to_string(served.size());
  }

  const double tolerance = 1e-9 * std::max(1.0, std::fabs(total_qoe));
  if (!(std::fabs(total_qoe - solution.total_qoe) <= tolerance)) {
    return "total_qoe " + std::to_string(solution.total_qoe) +
           " but the assignments give " + std::to_string(total_qoe);
  }
  return std::string();
}

std::string CompareSolutions(const gso::core::Solution& expected,
                             const gso::core::Solution& actual) {
  if (!SameBits(expected.total_qoe, actual.total_qoe)) return "total_qoe";
  if (!SameBits(expected.step1_qoe, actual.step1_qoe)) return "step1_qoe";
  if (expected.iterations != actual.iterations) return "iterations";
  if (expected.publish.size() != actual.publish.size()) return "publishers";
  for (auto e = expected.publish.begin(), a = actual.publish.begin();
       e != expected.publish.end(); ++e, ++a) {
    if (!(e->first == a->first) || e->second.size() != a->second.size()) {
      return "published sources";
    }
    for (size_t i = 0; i < e->second.size(); ++i) {
      const PublishedStream& x = e->second[i];
      const PublishedStream& y = a->second[i];
      if (!(x.resolution == y.resolution) || x.bitrate != y.bitrate ||
          !SameBits(x.qoe, y.qoe) || !(x.receivers == y.receivers)) {
        return "published stream of " + e->first.ToString();
      }
    }
  }
  if (expected.per_subscriber.size() != actual.per_subscriber.size()) {
    return "per-subscriber view";
  }
  for (auto e = expected.per_subscriber.begin(),
            a = actual.per_subscriber.begin();
       e != expected.per_subscriber.end(); ++e, ++a) {
    if (e->first != a->first || e->second.size() != a->second.size()) {
      return "per-subscriber view";
    }
    for (auto x = e->second.begin(), y = a->second.begin();
         x != e->second.end(); ++x, ++y) {
      if (!(x->first == y->first) ||
          !(x->second.resolution == y->second.resolution) ||
          x->second.bitrate != y->second.bitrate) {
        return "assignment of " + e->first.first.ToString();
      }
    }
  }
  return std::string();
}

std::string CheckStep1AgainstExhaustive(
    const gso::core::OrchestrationProblem& problem,
    const gso::core::Solution& dp, const gso::core::Solution& exhaustive) {
  if (dp.stats.reductions != 0 || exhaustive.stats.reductions != 0) {
    return "a Reduction fired on an input meant to have loose uplinks";
  }
  std::map<SourceId, double> best_qoe;
  for (const auto& c : problem.capabilities) {
    double best = 0.0;
    for (const auto& o : c.options) best = std::max(best, o.qoe);
    best_qoe[c.source] = best;
  }
  // Per subscriber: classes and the largest reachable value set the DP's
  // effective quantum.
  std::map<ClientId, std::pair<int, double>> per_subscriber;
  for (const auto& sub : problem.subscriptions) {
    auto& [classes, value_sum] = per_subscriber[sub.subscriber];
    ++classes;
    value_sum += best_qoe[sub.source] * sub.priority;
  }
  double bound = 0.0;
  for (const auto& [client, entry] : per_subscriber) {
    const double quantum =
        std::max(kValueQuantum, entry.second / kMaxCells);
    bound += entry.first * quantum;
  }
  if (dp.step1_qoe > exhaustive.step1_qoe * (1.0 + 1e-12)) {
    return "DP step1_qoe " + std::to_string(dp.step1_qoe) +
           " above the exhaustive optimum " +
           std::to_string(exhaustive.step1_qoe);
  }
  if (exhaustive.step1_qoe - dp.step1_qoe > bound) {
    return "DP step1_qoe " + std::to_string(dp.step1_qoe) + " is " +
           std::to_string(exhaustive.step1_qoe - dp.step1_qoe) +
           " below the exhaustive optimum, over the bound " +
           std::to_string(bound);
  }
  return std::string();
}

}  // namespace perfbench
