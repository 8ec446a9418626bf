// AVX2 variant of the blocked GEMM (gemm_kernel.hpp), built with -mavx2:
// 8 lanes and 16 registers, 6-row x 2-vector tiles (12 accumulators):
// timed against 2x4, 3x4, 4x2, 5x2 and 4x3 on the production MLP
// shapes, 6x2 was fastest or tied on all of them.
#include "tensor/gemm_kernel.hpp"

#if defined(MESORASI_GEMM_X86)

#include <immintrin.h>

namespace mesorasi::tensor::gemm {
namespace {

struct Avx2
{
    using Reg = __m256;
    static constexpr int kWidth = 8;

    struct Splat
    {
        __m256 v, nz;
    };

    static Reg zero() { return _mm256_setzero_ps(); }
    static Reg load(const float *p) { return _mm256_loadu_ps(p); }
    static void store(float *p, Reg v) { _mm256_storeu_ps(p, v); }

    static __m256i
    lanes(int n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Reg loadN(const float *p, int n)
    {
        return _mm256_maskload_ps(p, lanes(n));
    }
    static void storeN(float *p, Reg v, int n)
    {
        _mm256_maskstore_ps(p, lanes(n), v);
    }

    /** NEQ_UQ: NaN counts as nonzero, like x != 0. */
    static Splat
    splat(float x)
    {
        __m256 v = _mm256_set1_ps(x);
        return {v, _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NEQ_UQ)};
    }

    /** A skipped k adds +0.0, which leaves acc's bits alone: acc starts
     *  at +0.0 and a sum is -0.0 only when both operands are. */
    static Reg
    madd(Reg acc, const Splat &s, Reg b)
    {
        return _mm256_add_ps(acc,
                             _mm256_and_ps(_mm256_mul_ps(s.v, b), s.nz));
    }
};

} // namespace

void
runAvx2(const Block &g)
{
    run<Avx2, 6, 2>(g);
}

} // namespace mesorasi::tensor::gemm

#endif
