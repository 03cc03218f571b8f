#include "core/mckp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/mckp_kernel.h"

namespace gso::core {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// An item can be picked only with a finite non-negative value (a NaN or
// infinite priority would otherwise quantize out of range) and a weight
// within capacity.
bool Eligible(const MckpItem& item, int64_t capacity) {
  return item.weight >= 0 && item.weight <= capacity &&
         std::isfinite(item.value) && item.value >= 0;
}

}  // namespace

MckpResult DpMckpSolver::Solve(const std::vector<MckpClass>& classes,
                               int64_t capacity) const {
  MckpWorkspace workspace;
  return Solve(classes, capacity, &workspace);
}

MckpResult DpMckpSolver::Solve(const std::vector<MckpClass>& classes,
                               int64_t capacity,
                               MckpWorkspace* ws) const {
  MckpResult result;
  Solve(classes.data(), classes.size(), capacity, ws, &result);
  return result;
}

void DpMckpSolver::Solve(const MckpClass* classes, size_t num_classes,
                         int64_t capacity, MckpWorkspace* ws,
                         MckpResult* result) const {
  mckp_kernel::SolveDp({classes, num_classes}, capacity, value_quantum_,
                       max_cells_, mckp_kernel::Dispatched(), ws, result);
}

namespace mckp_kernel {

void SolveDp(std::span<const MckpClass> classes, int64_t capacity,
             double value_quantum, int64_t max_cells, ItemPass pass,
             MckpWorkspace* ws, MckpResult* result_ptr) {
  MckpResult& result = *result_ptr;
  result.choice.assign(classes.size(), -1);  // reuses capacity when warm
  result.total_value = 0.0;
  result.total_weight = 0;
  result.feasible = true;
  if (classes.empty()) return;
  capacity = std::min(capacity, kMaxCapacity);

  // Value grid: each item's value is floored to multiples of `quantum`.
  double value_sum = 0.0;
  size_t total_items = 0;
  for (const auto& cls : classes) {
    double best = 0.0;
    for (const auto& item : cls.items) {
      if (std::isfinite(item.value)) best = std::max(best, item.value);
    }
    value_sum += best;
    total_items += cls.items.size();
  }
  double quantum = value_quantum;
  if (value_sum / quantum > static_cast<double>(max_cells)) {
    quantum = value_sum / static_cast<double>(max_cells);
  }
  const int64_t cells =
      std::max<int64_t>(1, static_cast<int64_t>(value_sum / quantum));
  const size_t width = static_cast<size_t>(cells) + 1;

  // Acquire grow-only scratch. dp[v]: minimum weight achieving quantized
  // value exactly v; `next` double-buffers the per-class pass; choices row
  // k holds the item picked in class k on the best path through each state.
  auto& dp = ws->dp;
  auto& next = ws->next;
  if (dp.size() < width) dp.resize(width);
  if (next.size() < width) next.resize(width);
  std::fill(dp.begin(), dp.begin() + static_cast<ptrdiff_t>(width),
            kInfWeight);
  std::fill(next.begin(), next.begin() + static_cast<ptrdiff_t>(width),
            kInfWeight);
  dp[0] = 0;
  if (ws->choices.size() < classes.size() * width) {
    ws->choices.resize(classes.size() * width);
  }

  // Quantize every eligible item value exactly once. The forward pass and
  // the backtrack both read this table, so an item can never shift grid
  // cells between the two phases.
  if (ws->vq.size() < total_items) ws->vq.resize(total_items);
  ws->vq_offset.assign(classes.size() + 1, 0);
  if (ws->keep.size() < total_items) ws->keep.resize(total_items);
  {
    size_t offset = 0;
    for (size_t k = 0; k < classes.size(); ++k) {
      ws->vq_offset[k] = offset;
      for (const auto& item : classes[k].items) {
        ws->vq[offset++] = Eligible(item, capacity)
                               ? static_cast<int64_t>(item.value / quantum)
                               : 0;
      }
    }
    ws->vq_offset[classes.size()] = offset;
  }

  // reach: highest value cell with a finite dp entry (-1 while none).
  // wm_*: high-water marks — every cell above them is kInfWeight, so stale
  // buffer contents beyond the current pass are never observed.
  int64_t reach = 0;
  int64_t wm_dp = 0;
  int64_t wm_next = -1;

  for (size_t k = 0; k < classes.size(); ++k) {
    const auto& cls = classes[k];
    GSO_CHECK(cls.items.size() <
              static_cast<size_t>(std::numeric_limits<int16_t>::max()));
    const int64_t* vq = ws->vq.data() + ws->vq_offset[k];
    uint8_t* keep = ws->keep.data() + ws->vq_offset[k];

    // Dominance pruning. Eligible items sorted by (value desc, weight asc,
    // index asc) survive only while strictly lighter than everything that
    // sorts before them: the survivors form the staircase of per-value
    // minimum weights. A pruned item can never be the DP's recorded
    // first-minimum choice at any state on the backtracked optimal path,
    // so the solve result is identical to the unpruned instance.
    auto& order = ws->order;
    order.clear();
    for (size_t j = 0; j < cls.items.size(); ++j) {
      keep[j] = 0;
      if (Eligible(cls.items[j], capacity)) {
        order.push_back(static_cast<int16_t>(j));
      }
    }
    std::sort(order.begin(), order.end(), [&](int16_t a, int16_t b) {
      if (vq[a] != vq[b]) return vq[a] > vq[b];
      const int64_t wa = cls.items[static_cast<size_t>(a)].weight;
      const int64_t wb = cls.items[static_cast<size_t>(b)].weight;
      if (wa != wb) return wa < wb;
      return a < b;
    });
    int64_t min_weight = std::numeric_limits<int64_t>::max();
    int64_t max_vq = 0;
    for (const int16_t j : order) {
      const int64_t w = cls.items[static_cast<size_t>(j)].weight;
      if (w < min_weight) {
        keep[j] = 1;
        min_weight = w;
        max_vq = std::max(max_vq, vq[j]);
      }
    }

    // This pass can only populate cells up to reach + max_vq.
    const int64_t row_end = std::min(cells, reach + max_vq);
    // Start from the skip branch (or unreachable when the class is
    // mandatory: every state must then include an item of this class).
    if (cls.mandatory) {
      std::fill(next.begin(),
                next.begin() + static_cast<ptrdiff_t>(
                                   std::max(row_end, wm_next) + 1),
                kInfWeight);
    } else {
      std::copy(dp.begin(), dp.begin() + static_cast<ptrdiff_t>(row_end + 1),
                next.begin());
      if (wm_next > row_end) {
        std::fill(next.begin() + static_cast<ptrdiff_t>(row_end + 1),
                  next.begin() + static_cast<ptrdiff_t>(wm_next + 1),
                  kInfWeight);
      }
    }
    wm_next = row_end;
    int16_t* row = ws->choices.data() + k * width;
    std::fill(row, row + row_end + 1, static_cast<int16_t>(-1));

    // Items in index order, each over every cell it can reach; unreachable
    // bases hold kInfWeight, so their candidates fail the capacity test.
    for (size_t j = 0; j < cls.items.size(); ++j) {
      if (!keep[j]) continue;
      pass(dp.data(), next.data() + vq[j], row + vq[j], row_end - vq[j] + 1,
           cls.items[j].weight, capacity, static_cast<int16_t>(j));
    }
    dp.swap(next);
    std::swap(wm_dp, wm_next);
    reach = row_end;
    while (reach >= 0 && dp[static_cast<size_t>(reach)] >= kInfWeight) {
      --reach;
    }
    if (reach < 0) {
      // A mandatory class admits no feasible item: every later pass would
      // stay unreachable, so the reference loop also ends up infeasible.
      result.feasible = false;
      return;
    }
  }

  // Best achievable quantized value within capacity.
  int64_t best_v = -1;
  for (int64_t v = reach; v >= 0; --v) {
    if (dp[static_cast<size_t>(v)] <= capacity) {
      best_v = v;
      break;
    }
  }
  if (best_v < 0) {
    result.feasible = false;
    return;
  }

  // Backtrack through the per-class choice tables.
  int64_t v = best_v;
  for (size_t k = classes.size(); k-- > 0;) {
    const int16_t j = ws->choices[k * width + static_cast<size_t>(v)];
    result.choice[k] = j;
    if (j >= 0) {
      const auto& item = classes[k].items[static_cast<size_t>(j)];
      result.total_value += item.value;
      result.total_weight += item.weight;
      v -= ws->vq[ws->vq_offset[k] + static_cast<size_t>(j)];
      GSO_CHECK_GE(v, 0);
    }
  }
}

}  // namespace mckp_kernel

MckpResult ExhaustiveMckpSolver::Solve(const std::vector<MckpClass>& classes,
                                       int64_t capacity) const {
  visits_ = 0;
  MckpResult best;
  best.choice.assign(classes.size(), -1);
  best.total_value = kNegInf;

  std::vector<int> current(classes.size(), -1);

  // Depth-first over classes; `weight`/`value` accumulate the partial pick.
  auto recurse = [&](auto&& self, size_t k, int64_t weight,
                     double value) -> void {
    if (k == classes.size()) {
      ++visits_;
      if (value > best.total_value) {
        best.total_value = value;
        best.total_weight = weight;
        best.choice = current;
      }
      return;
    }
    const auto& cls = classes[k];
    if (!cls.mandatory) {
      current[k] = -1;
      self(self, k + 1, weight, value);
    }
    for (size_t j = 0; j < cls.items.size(); ++j) {
      const auto& item = cls.items[j];
      if (weight + item.weight > capacity) continue;
      current[k] = static_cast<int>(j);
      self(self, k + 1, weight + item.weight, value + item.value);
    }
    current[k] = -1;
  };
  recurse(recurse, 0, 0, 0.0);

  if (best.total_value == kNegInf) {
    best.total_value = 0.0;
    best.feasible = false;
  }
  return best;
}

}  // namespace gso::core
