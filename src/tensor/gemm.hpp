/**
 * @file
 * Internal seam of the GEMM behind tensor::matmul / matmulInto.
 *
 * The blocked kernel body (gemm_kernel.hpp) is compiled for AVX2 and
 * AVX-512 in translation units of their own, each with its own -m flag
 * (gemm_avx2.cpp, gemm_avx512.cpp), and once more in gemm.cpp on the
 * compile-time simd::VecF lanes (SSE2 on x86-64 baseline builds, NEON
 * on ARM). gemm.cpp picks the widest variant the CPU supports once,
 * via cpuid, so a default build with no -march runs the host's full
 * vector width. Not part of the public API: callers go through
 * tensor/ops.hpp.
 */
#pragma once

#include <cstdint>

#if !defined(MESORASI_FORCE_SCALAR) && \
    (defined(__x86_64__) || defined(_M_X64))
#define MESORASI_GEMM_X86 1
#endif

namespace mesorasi::tensor::gemm {

/** One strided block product, leading dimensions in floats:
 *  c[r*ldc + j] = sum_k a[r*lda + k] * b[k*ldb + j]
 *  for r < rows, j < m, k over [0, depth). */
struct Block
{
    float *c;
    int64_t ldc;
    const float *a;
    int64_t lda;
    const float *b;
    int64_t ldb;
    int32_t rows;
    int32_t depth;
    int32_t m;
};

using Kernel = void (*)(const Block &);

#if defined(MESORASI_GEMM_X86)
void runAvx2(const Block &g);
void runAvx512(const Block &g);
#endif

/** The kernel selected for this process (see tensor::gemmIsa), or
 *  nullptr when no vector variant exists for this build. */
Kernel selected();

} // namespace mesorasi::tensor::gemm
