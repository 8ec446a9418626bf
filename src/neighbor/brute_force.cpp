#include "neighbor/brute_force.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/workspace.hpp"
#include "neighbor/dist_batch.hpp"

namespace mesorasi::neighbor {

namespace {

/** Grow-only per-thread (distance, index) ranking scratch shared by
 *  both scans, so queries never allocate once warm. */
std::vector<std::pair<float, int32_t>> &
rankScratch()
{
    static thread_local std::vector<std::pair<float, int32_t>> scratch;
    return scratch;
}

} // namespace

void
BruteForce::knnInto(const float *query, int32_t k, int32_t *out) const
{
    MESO_REQUIRE(k > 0 && k <= points_.size(),
                 "k=" << k << " with " << points_.size() << " points");
    int32_t n = points_.size();
    // Batched distance pass (SIMD over candidates), then rank. The d2
    // values are bitwise identical to per-point dist2To, so the
    // (distance, index) order — and therefore the result — is too.
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
    float *d2 = ws.floats(Workspace::kDistOut, static_cast<size_t>(n));
    dist2Range(points_, 0, n, query, d2);
    std::vector<std::pair<float, int32_t>> &dists = rankScratch();
    dists.resize(static_cast<size_t>(n));
    for (int32_t i = 0; i < n; ++i)
        dists[static_cast<size_t>(i)] = {d2[i], i};
    // Pair comparison sorts by (distance, index): ties break by index,
    // the ordering contract shared by every search backend.
    std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
    for (int32_t j = 0; j < k; ++j)
        out[j] = dists[static_cast<size_t>(j)].second;
}

int32_t
BruteForce::radiusInto(const float *query, float radius, int32_t maxK,
                       int32_t *out) const
{
    MESO_REQUIRE(radius > 0.0f && maxK > 0,
                 "radius=" << radius << " maxK=" << maxK);
    float r2 = radius * radius;
    int32_t n = points_.size();
    Workspace &ws = Workspace::local();
    Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
    float *d2 = ws.floats(Workspace::kDistOut, static_cast<size_t>(n));
    dist2Range(points_, 0, n, query, d2);
    std::vector<std::pair<float, int32_t>> &found = rankScratch();
    found.clear();
    for (int32_t i = 0; i < n; ++i) {
        if (d2[i] <= r2)
            found.push_back({d2[i], i});
    }
    // Nearest first, ties by index, so truncation at maxK keeps the
    // same set no matter which search structure answered the query.
    std::sort(found.begin(), found.end());
    int32_t count =
        std::min<int32_t>(maxK, static_cast<int32_t>(found.size()));
    for (int32_t j = 0; j < count; ++j)
        out[j] = found[static_cast<size_t>(j)].second;
    return count;
}

} // namespace mesorasi::neighbor
