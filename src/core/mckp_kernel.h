// The Step-1 knapsack kernel behind DpMckpSolver: one item's pass over the
// value grid, compiled once per instruction set and picked once at runtime
// from the CPU. Internal to core/: tests and bench/micro_controller include
// it to run every variant the host supports. Not a user knob: production
// code always goes through DpMckpSolver, which uses Dispatched().
#ifndef GSO_CORE_MCKP_KERNEL_H_
#define GSO_CORE_MCKP_KERNEL_H_

#include <cstdint>
#include <span>

#include "core/mckp.h"

namespace gso::core::mckp_kernel {

// For every v in [0, n): cand = dp[v] + weight; when cand <= capacity and
// cand < next[v] (strictly), next[v] = cand and row[v] = item. The caller
// offsets `next` and `row` by the item's quantized value, so dp[v] is the
// state the item extends. Cells are independent of each other: the body
// has no branch and no loop-carried dependency, so it vectorizes.
// Overflow-free while dp[v] <= kInfWeight and weight <= capacity <=
// kMaxCapacity.
using ItemPass = void (*)(const int64_t* dp, int64_t* next, int16_t* row,
                          int64_t n, int64_t weight, int64_t capacity,
                          int16_t item);

// "No state reaches this cell" marker in the DP tables.
inline constexpr int64_t kInfWeight = INT64_MAX / 2;
// Capacities are clamped to this on entry, so kInfWeight + weight cannot
// overflow for an eligible item. It equals the capacity the orchestrator
// passes for an unbounded downlink.
inline constexpr int64_t kMaxCapacity = kInfWeight / 2;

struct Variant {
  const char* name;
  ItemPass pass;
  bool supported;  // the running CPU can execute it
};

// Every variant built into this binary, fastest first. The last is the
// portable body and is always supported.
std::span<const Variant> Variants();

// The first supported entry of Variants(), chosen on first use.
ItemPass Dispatched();

// The DP behind DpMckpSolver::Solve, run with an explicit item pass.
void SolveDp(std::span<const MckpClass> classes, int64_t capacity,
             double value_quantum, int64_t max_cells, ItemPass pass,
             MckpWorkspace* ws, MckpResult* result);

}  // namespace gso::core::mckp_kernel

#endif  // GSO_CORE_MCKP_KERNEL_H_
