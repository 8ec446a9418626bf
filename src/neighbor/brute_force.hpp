/**
 * @file
 * Brute-force neighbor search: the exhaustive-scan "brute_force"
 * backend. It is the reference all accelerated structures are
 * validated against, and the model of how the GPU baseline actually
 * executes k-NN in the evaluated networks.
 */
#pragma once

#include <cstdint>

#include "neighbor/search_backend.hpp"

namespace mesorasi::neighbor {

/**
 * Exhaustive O(N) scan per query: one batched (SIMD) distance pass
 * over every point, then a (distance, index) ranking in grow-only
 * per-thread scratch, so the steady state never allocates. Building
 * it costs nothing beyond holding the view.
 */
class BruteForce final : public SearchBackend
{
  public:
    explicit BruteForce(const PointsView &points) : SearchBackend(points)
    {
    }

    const char *name() const override { return "brute_force"; }

    void knnInto(const float *query, int32_t k,
                 int32_t *out) const override;

    int32_t radiusInto(const float *query, float radius, int32_t maxK,
                       int32_t *out) const override;
};

} // namespace mesorasi::neighbor
