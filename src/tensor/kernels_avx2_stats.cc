// AVX2 instantiation of the column-statistics cores (kernels_stats.inl).
// Built -O3 -mavx2 -ffp-contract=off (see src/CMakeLists.txt): four doubles
// per register, every multiply and add unfused, so each column's bits equal
// the generic instantiation's. It is kept apart from kernels_avx2.cc, whose
// -mfma build contracts at GCC's default, and it never gets -mfma. kernels.cc
// calls into it only behind the same CPU check as the other AVX2 cores.
//
// It includes only what it needs for the .inl: a header's inline function
// compiled here could be the copy the linker keeps for every caller, and
// would then run AVX2 code on a host without it (pafeat-lint
// kernel-tu-includes).

#include <cstddef>

#if defined(__x86_64__) || defined(_M_X64)

#define PAFEAT_STATS_NAMESPACE avx2
#include "tensor/kernels_stats.inl"
#undef PAFEAT_STATS_NAMESPACE

#endif  // x86-64
