#include "core/mckp_kernel.h"

#include <array>

namespace gso::core::mckp_kernel {
namespace {

// The one loop body. Both the select of `next` and of `row` read the same
// `better` mask, so the first strict minimum over items (called in index
// order) wins every cell, exactly like the branchy reference loop.
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void PassBody(const int64_t* __restrict dp, int64_t* __restrict next,
                     int16_t* __restrict row, int64_t n, int64_t weight,
                     int64_t capacity, int16_t item) {
  for (int64_t v = 0; v < n; ++v) {
    const int64_t cand = dp[v] + weight;
    const bool better = (cand <= capacity) & (cand < next[v]);
    next[v] = better ? cand : next[v];
    row[v] = better ? item : row[v];
  }
}

void PassPortable(const int64_t* dp, int64_t* next, int16_t* row, int64_t n,
                  int64_t weight, int64_t capacity, int16_t item) {
  PassBody(dp, next, row, n, weight, capacity, item);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define GSO_MCKP_X86_VARIANTS 1

// x86-64-v4 spelled as its ISA extensions (not "arch=") so the portable
// body may be inlined into it; CpuHasX86V4 checks the same list.
__attribute__((target(
    "avx512f,avx512bw,avx512cd,avx512dq,avx512vl,avx2,bmi,bmi2,fma,popcnt")))
void PassX86V4(const int64_t* dp, int64_t* next, int16_t* row, int64_t n,
               int64_t weight, int64_t capacity, int16_t item) {
  PassBody(dp, next, row, n, weight, capacity, item);
}

__attribute__((target("avx2")))
void PassAvx2(const int64_t* dp, int64_t* next, int16_t* row, int64_t n,
              int64_t weight, int64_t capacity, int16_t item) {
  PassBody(dp, next, row, n, weight, capacity, item);
}

bool CpuHasX86V4() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi") &&
         __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("popcnt");
}

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif  // __x86_64__ && __GNUC__

}  // namespace

std::span<const Variant> Variants() {
  static const auto variants = std::to_array<Variant>({
#if defined(GSO_MCKP_X86_VARIANTS)
      {"x86-64-v4", &PassX86V4, CpuHasX86V4()},
      {"avx2", &PassAvx2, CpuHasAvx2()},
#endif
      {"baseline", &PassPortable, true},
  });
  return variants;
}

ItemPass Dispatched() {
  static const ItemPass pass = [] {
    for (const Variant& variant : Variants()) {
      if (variant.supported) return variant.pass;
    }
    return &PassPortable;
  }();
  return pass;
}

}  // namespace gso::core::mckp_kernel
