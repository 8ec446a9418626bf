/**
 * @file
 * The cache-blocked GEMM body, written once against a vector-traits
 * type and instantiated by each ISA translation unit.
 *
 * Blocking: column panels of NR vectors form the outer loop and MR-row
 * register tiles the inner one, so each K x NR*W weight panel is
 * re-read from L1/L2 by every row tile of the block instead of the
 * whole weight matrix being re-streamed from L3 for every few rows. A
 * tile keeps its MR x NR accumulators in registers across the whole k
 * loop and shares each weight-row load among its MR rows. Weights stay
 * row-major (no packed copy); the last panel takes the leftover full
 * vectors plus one partial vector, and leftover rows run a shorter
 * tile.
 *
 * Bit contract: every c[r][j] is the ascending-k sequence
 * acc = acc + a[r][k] * b[k][j] from a +0.0f seed, as a separate mul
 * and add (the ISA units build with -ffp-contract=off, so no FMA), and
 * a k with a[r][k] == 0 contributes nothing even where b[k][j] is
 * inf/NaN. That is exactly the scalar reference row kernel
 * (tensor/ops.cpp), so every variant is bitwise equal to it. The skip
 * is branch-free (V::madd): a per-row branch inside a tall tile would
 * mispredict on ReLU-sparse activations.
 *
 * Everything here sits in an anonymous namespace on purpose: each
 * including unit gets a private copy compiled for its own ISA, so the
 * linker can never hand an AVX-512 instantiation to a caller that
 * dispatched to SSE2. For the same reason this header includes nothing
 * that defines external-linkage inline functions.
 *
 * Traits V provide: Reg, kWidth, zero/load/store, loadN/storeN (the
 * first n < kWidth lanes; the rest load as 0 and are never stored),
 * splat(x) -> Splat (x broadcast plus its x != 0 mask, NaN counting as
 * nonzero) and madd(acc, s, b) = (s != 0) ? acc + s*b : acc.
 */
#pragma once

#include "tensor/gemm.hpp"

namespace mesorasi::tensor::gemm {
namespace {

/** One MR x NR-vector register tile at rows [r0, r0+MR), columns from
 *  j0; with Tail the last vector holds only @p tailN columns. */
template <class V, int MR, int NR, bool Tail>
void
tile(const Block &g, int64_t r0, int32_t j0, int tailN)
{
    constexpr int W = V::kWidth;
    typename V::Reg acc[MR][NR];
    for (int r = 0; r < MR; ++r)
        for (int t = 0; t < NR; ++t)
            acc[r][t] = V::zero();

    const float *a = g.a + r0 * g.lda;
    const float *b = g.b + j0;
    for (int32_t k = 0; k < g.depth; ++k, b += g.ldb) {
        typename V::Reg bv[NR];
        for (int t = 0; t < NR; ++t)
            bv[t] = Tail && t == NR - 1 ? V::loadN(b + t * W, tailN)
                                        : V::load(b + t * W);
        for (int r = 0; r < MR; ++r) {
            const typename V::Splat s = V::splat(a[r * g.lda + k]);
            for (int t = 0; t < NR; ++t)
                acc[r][t] = V::madd(acc[r][t], s, bv[t]);
        }
    }

    float *c = g.c + r0 * g.ldc + j0;
    for (int r = 0; r < MR; ++r)
        for (int t = 0; t < NR; ++t) {
            if (Tail && t == NR - 1)
                V::storeN(c + r * g.ldc + t * W, acc[r][t], tailN);
            else
                V::store(c + r * g.ldc + t * W, acc[r][t]);
        }
}

/** The leftover rows of a panel (fewer than the full tile height). */
template <class V, int R, int NR, bool Tail>
void
rowTail(const Block &g, int64_t r0, int32_t rows, int32_t j0, int tailN)
{
    if constexpr (R > 0) {
        if (rows == R)
            tile<V, R, NR, Tail>(g, r0, j0, tailN);
        else
            rowTail<V, R - 1, NR, Tail>(g, r0, rows, j0, tailN);
    }
}

/** All row tiles of one NR-vector column panel starting at j0. */
template <class V, int MR, int NR, bool Tail>
void
panel(const Block &g, int32_t j0, int tailN)
{
    int64_t r = 0;
    for (; r + MR <= g.rows; r += MR)
        tile<V, MR, NR, Tail>(g, r, j0, tailN);
    if (r < g.rows)
        rowTail<V, MR - 1, NR, Tail>(g, r, static_cast<int32_t>(g.rows - r),
                                     j0, tailN);
}

/** The last, narrower panel: @p vecs vectors (1..NR), the final one
 *  partial when tailN > 0. */
template <class V, int MR, int NR>
void
lastPanel(const Block &g, int32_t j0, int32_t vecs, int tailN)
{
    if constexpr (NR > 0) {
        if (vecs != NR)
            lastPanel<V, MR, NR - 1>(g, j0, vecs, tailN);
        else if (tailN > 0)
            panel<V, MR, NR, true>(g, j0, tailN);
        else
            panel<V, MR, NR, false>(g, j0, 0);
    }
}

/** The whole block: full panels outer, row tiles inner, then the
 *  column remainder. */
template <class V, int MR, int NR>
void
run(const Block &g)
{
    constexpr int W = V::kWidth;
    int32_t j = 0;
    for (; j + NR * W <= g.m; j += NR * W)
        panel<V, MR, NR, false>(g, j, 0);
    const int32_t left = g.m - j;
    if (left > 0)
        lastPanel<V, MR, NR>(g, j, (left + W - 1) / W, left % W);
}

} // namespace
} // namespace mesorasi::tensor::gemm
