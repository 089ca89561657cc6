/**
 * @file
 * Provenance shim for the repository benchmark, whose result file
 * records `simd::to_string(simd::active_simd_level())`.
 * perfbench/perfbench.cc is its only caller. The match engines
 * (tcam/tcam.h) have no kernel dispatch, so the level is always "none".
 * The header goes when the benchmark next changes.
 */
#ifndef APPROXNOC_TCAM_MATCH_KERNEL_H
#define APPROXNOC_TCAM_MATCH_KERNEL_H

namespace approxnoc::simd {

enum class SimdLevel { None };

inline SimdLevel active_simd_level() { return SimdLevel::None; }
inline const char *to_string(SimdLevel) { return "none"; }

} // namespace approxnoc::simd

#endif // APPROXNOC_TCAM_MATCH_KERNEL_H
