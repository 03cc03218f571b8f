// Multiple-Choice Knapsack solvers.
//
// Step 1 of the GSO control algorithm reduces each subscriber's downlink to
// a Multiple-Choice Knapsack: one class per subscribed source, one item per
// feasible (resolution, bitrate) option, capacity = B_d. The paper solves
// it with pseudo-polynomial dynamic programming; the exhaustive solver
// reproduces the paper's brute-force baseline (Fig. 6a/6b) and is also used
// to cross-check DP optimality in tests.
#ifndef GSO_CORE_MCKP_H_
#define GSO_CORE_MCKP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gso::core {

struct MckpItem {
  int64_t weight = 0;  // bits per second
  double value = 0.0;  // priority-weighted QoE utility
};

struct MckpClass {
  std::vector<MckpItem> items;
  // Mandatory classes must select an item (used by the Step-3 repair
  // knapsack, where every already-published resolution keeps a stream).
  bool mandatory = false;
};

struct MckpResult {
  // choice[k] = selected item index in class k, or -1 for none.
  std::vector<int> choice;
  double total_value = 0.0;
  int64_t total_weight = 0;
  bool feasible = true;  // false iff a mandatory class cannot be satisfied
};

// Grow-only scratch buffers for DpMckpSolver. The controller solves one
// MCKP per subscriber per iteration; owning the tables across solves (one
// workspace per orchestrator, or per worker thread when Step 1 runs in
// parallel) removes every per-solve heap allocation from the hot path.
// A workspace may be reused freely across solvers, capacities and problem
// shapes; buffers only ever grow.
struct MckpWorkspace {
  std::vector<int64_t> dp;        // dp[v]: min weight at quantized value v
  std::vector<int64_t> next;      // double buffer for the class pass
  std::vector<int16_t> choices;   // per class: item on the best path, row-major
  std::vector<int64_t> vq;        // per item: precomputed quantized value
  std::vector<std::size_t> vq_offset;  // per class: offset of its items in vq
  std::vector<int16_t> order;     // dominance-pruning sort scratch
  std::vector<uint8_t> keep;      // dominance-pruning survivor flags
};

class MckpSolver {
 public:
  virtual ~MckpSolver() = default;
  virtual MckpResult Solve(const std::vector<MckpClass>& classes,
                           int64_t capacity) const = 0;
  // Workspace-aware entry point; solvers that keep no scratch (e.g. the
  // exhaustive baseline) ignore the workspace.
  virtual MckpResult Solve(const std::vector<MckpClass>& classes,
                           int64_t capacity, MckpWorkspace* workspace) const {
    (void)workspace;
    return Solve(classes, capacity);
  }
  // Hot-path entry: pointer+count input (lets callers keep a grow-only
  // class array larger than the instance) and an out-param result whose
  // buffers are reused across calls. DpMckpSolver implements this with
  // zero steady-state allocations; the default shims through the
  // allocating overloads for baseline solvers.
  virtual void Solve(const MckpClass* classes, size_t num_classes,
                     int64_t capacity, MckpWorkspace* workspace,
                     MckpResult* result) const {
    const std::vector<MckpClass> copy(classes, classes + num_classes);
    *result = Solve(copy, capacity, workspace);
  }
};

// Pseudo-polynomial DP over the *value* dimension: dp[v] = minimum weight
// achieving quantized value v (the classic FPTAS formulation). Weights stay
// exact, so a returned solution never exceeds the capacity and knife-edge
// fits are found; value quantization is the only source of sub-optimality
// (loss <= #classes * value_quantum). With value_quantum = 1 QoE unit the
// table size grows linearly with the number of classes (publishers), which
// reproduces the paper's reported scaling: linear in subscribers and
// bitrate levels, quadratic in publishers (Fig. 6c).
//
// Before the DP, each class is reduced by dominance pruning: an item is
// dropped when another item of the class weighs no more and achieves at
// least the same quantized value (ties resolved toward the earlier item,
// matching the DP's first-minimum tie-break). Pruned items can never
// appear in the returned solution, so the result — choice vector included —
// is identical to solving the unpruned instance; the DP inner loops just
// run over strictly fewer items. Each class pass is further bounded by the
// highest reachable value so far, which skips provably unreachable cells.
//
// Each kept item's pass over the value grid is branchless and has no
// dependency between cells, so it vectorizes. It is built for x86-64-v4,
// AVX2 and the baseline ISA, and the variant is picked once at runtime from
// the CPU (core/mckp_kernel.h); every variant returns the same bits.
// Capacities above INT64_MAX / 4 are clamped to it, and an item whose value
// is negative, NaN or infinite is never picked.
class DpMckpSolver : public MckpSolver {
 public:
  explicit DpMckpSolver(double value_quantum = 1.0,
                        int64_t max_cells = 1 << 16)
      : value_quantum_(value_quantum), max_cells_(max_cells) {}

  MckpResult Solve(const std::vector<MckpClass>& classes,
                   int64_t capacity) const override;
  MckpResult Solve(const std::vector<MckpClass>& classes, int64_t capacity,
                   MckpWorkspace* workspace) const override;
  void Solve(const MckpClass* classes, size_t num_classes, int64_t capacity,
             MckpWorkspace* workspace, MckpResult* result) const override;

 private:
  double value_quantum_;
  int64_t max_cells_;
};

// Exact exponential-time enumeration: the paper's brute-force baseline.
// Visits every combination of (item or none) per class; complexity
// prod_k (|items_k| + 1).
class ExhaustiveMckpSolver : public MckpSolver {
 public:
  using MckpSolver::Solve;
  MckpResult Solve(const std::vector<MckpClass>& classes,
                   int64_t capacity) const override;

  // Combinations visited by the last Solve call (for scaling benches).
  int64_t last_visit_count() const { return visits_; }

 private:
  mutable int64_t visits_ = 0;
};

}  // namespace gso::core

#endif  // GSO_CORE_MCKP_H_
