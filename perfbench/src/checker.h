// Output checks written apart from the program: nothing here calls the
// library's own ValidateSolution. Every check recomputes what it needs from
// the problem snapshot and returns an empty string when the solution holds,
// else a description of the first violation.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <string>

#include "core/types.h"

namespace perfbench {

// Budgets (uplink = published bitrates, downlink = received bitrates),
// at most one bitrate per resolution per source, every stream from its
// source's ladder and within its subscription's maximum resolution, the
// per-subscriber view consistent with the receiver lists, and total_qoe
// rebuilt from the assignments and priorities.
std::string CheckSolution(const gso::core::OrchestrationProblem& problem,
                          const gso::core::Solution& solution);

// Exact equality of everything a solve decides (the stats trace aside),
// doubles compared by bit pattern.
std::string CompareSolutions(const gso::core::Solution& expected,
                             const gso::core::Solution& actual);

// Step-1 optimality against the exhaustive solver: the DP's step1_qoe is
// never above the exhaustive one and falls short of it by at most the
// quantization bound, sum over subscribers of classes x value quantum.
// Requires that no Reduction fired in either solve.
std::string CheckStep1AgainstExhaustive(
    const gso::core::OrchestrationProblem& problem,
    const gso::core::Solution& dp, const gso::core::Solution& exhaustive);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
