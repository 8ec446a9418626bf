#include "neighbor/grid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/workspace.hpp"
#include "neighbor/dist_batch.hpp"

namespace mesorasi::neighbor {

GridIndex::GridIndex(const PointsView &points, const SearchHints &hints)
    : SearchBackend(points)
{
    MESO_REQUIRE(points.dim() == 3,
                 "grid backend is 3-D only, got dim " << points.dim());
    MESO_REQUIRE(points.size() > 0, "cannot index an empty view");

    // One bounding-box pass serves both the grid origin and the
    // cell-size heuristic.
    float hi[3];
    for (int32_t d = 0; d < 3; ++d)
        origin_[d] = hi[d] = points.row(0)[d];
    for (int32_t i = 1; i < points.size(); ++i) {
        const float *p = points.row(i);
        for (int32_t d = 0; d < 3; ++d) {
            origin_[d] = std::min(origin_[d], p[d]);
            hi[d] = std::max(hi[d], p[d]);
        }
    }
    if (hints.radius > 0.0f) {
        cellSize_ = hints.radius;
    } else {
        float volume = 1.0f;
        for (int32_t d = 0; d < 3; ++d)
            volume *= std::max(hi[d] - origin_[d], 1e-3f);
        float k = static_cast<float>(hints.k > 0 ? hints.k : 16);
        cellSize_ = std::max(
            std::cbrt(volume * k / static_cast<float>(points.size())),
            1e-4f);
    }

    // CSR build: key every point, sort (key, index) pairs — ascending
    // index within a cell, matching the old hash map's push_back order
    // — then lay the cells out contiguously.
    std::vector<std::pair<int64_t, int32_t>> keyed(points.size());
    for (int32_t i = 0; i < points.size(); ++i) {
        int64_t c[3];
        cellOf(points.row(i), c);
        for (int32_t d = 0; d < 3; ++d) {
            loCell_[d] = i == 0 ? c[d] : std::min(loCell_[d], c[d]);
            hiCell_[d] = i == 0 ? c[d] : std::max(hiCell_[d], c[d]);
        }
        keyed[i] = {key(c[0], c[1], c[2]), i};
    }
    std::sort(keyed.begin(), keyed.end());

    cellPoints_.resize(keyed.size());
    for (size_t i = 0; i < keyed.size(); ++i) {
        if (i == 0 || keyed[i].first != keyed[i - 1].first) {
            cellKeys_.push_back(keyed[i].first);
            cellStart_.push_back(static_cast<int32_t>(i));
        }
        cellPoints_[i] = keyed[i].second;
    }
    cellStart_.push_back(static_cast<int32_t>(keyed.size()));
}

GridIndex::CellSpan
GridIndex::findCell(int64_t k) const
{
    auto it = std::lower_bound(cellKeys_.begin(), cellKeys_.end(), k);
    if (it == cellKeys_.end() || *it != k)
        return {};
    size_t cell = static_cast<size_t>(it - cellKeys_.begin());
    return {cellPoints_.data() + cellStart_[cell],
            cellStart_[cell + 1] - cellStart_[cell]};
}

void
GridIndex::cellOf(const float *p, int64_t c[3]) const
{
    for (int32_t d = 0; d < 3; ++d)
        c[d] = static_cast<int64_t>(
            std::floor((p[d] - origin_[d]) / cellSize_));
}

int64_t
GridIndex::key(int64_t cx, int64_t cy, int64_t cz) const
{
    // 21 signed bits per axis.
    auto pack = [](int64_t v) { return (v + (1 << 20)) & 0x1fffff; };
    return (pack(cx) << 42) | (pack(cy) << 21) | pack(cz);
}

namespace {

/** Grow-only per-thread (distance, index) ranking scratch shared by
 *  both grid queries. */
std::vector<std::pair<float, int32_t>> &
rankScratch()
{
    static thread_local std::vector<std::pair<float, int32_t>> scratch;
    return scratch;
}

} // namespace

int32_t
GridIndex::radiusInto(const float *query, float radius, int32_t maxK,
                      int32_t *out) const
{
    MESO_REQUIRE(radius > 0.0f && maxK > 0,
                 "radius=" << radius << " maxK=" << maxK);
    float r2 = radius * radius;
    int64_t reach =
        static_cast<int64_t>(std::ceil(radius / cellSize_));

    int64_t c[3];
    cellOf(query, c);
    std::vector<std::pair<float, int32_t>> &found = rankScratch();
    found.clear();
    for (int64_t dx = -reach; dx <= reach; ++dx) {
        for (int64_t dy = -reach; dy <= reach; ++dy) {
            for (int64_t dz = -reach; dz <= reach; ++dz) {
                CellSpan span =
                    findCell(key(c[0] + dx, c[1] + dy, c[2] + dz));
                if (span.count == 0)
                    continue;
                // One batched (SIMD) distance pass over the cell's
                // contiguous candidate span, then the in-ball filter.
                Workspace &ws = Workspace::local();
                Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
                float *d2 = ws.floats(Workspace::kDistOut,
                                      static_cast<size_t>(span.count));
                dist2Batch(points_, span.begin, span.count, query, d2);
                for (int32_t i = 0; i < span.count; ++i) {
                    if (d2[i] <= r2)
                        found.push_back({d2[i], span.begin[i]});
                }
            }
        }
    }
    // Default pair ordering is (distance, index): ties resolve
    // deterministically and identically across all search backends.
    std::sort(found.begin(), found.end());
    int32_t count =
        std::min<int32_t>(maxK, static_cast<int32_t>(found.size()));
    for (int32_t j = 0; j < count; ++j)
        out[j] = found[static_cast<size_t>(j)].second;
    return count;
}

void
GridIndex::knnInto(const float *query, int32_t k, int32_t *out) const
{
    MESO_REQUIRE(k > 0 && k <= points_.size(),
                 "k=" << k << " with " << points_.size() << " points");
    std::vector<std::pair<float, int32_t>> &best = rankScratch();
    best.clear();

    int64_t c[3];
    cellOf(query, c);
    // The farthest occupied cell bounds the shell expansion.
    int64_t max_ring = 0;
    for (int32_t d = 0; d < 3; ++d) {
        max_ring = std::max(max_ring, std::abs(loCell_[d] - c[d]));
        max_ring = std::max(max_ring, std::abs(hiCell_[d] - c[d]));
    }

    // best is kept sorted with size <= k.
    for (int64_t ring = 0; ring <= max_ring; ++ring) {
        // Cells not yet scanned have Chebyshev distance >= ring, and a
        // point there is at least (ring - 1) * cellSize away (the query
        // may sit at the edge of its own cell), so once the k-th best
        // distance is strictly inside that bound the answer is exact.
        // Strict: at exactly the bound, an unscanned equidistant point
        // with a smaller index could still win the tie-break.
        if (static_cast<int32_t>(best.size()) == k && ring > 0) {
            float bound = static_cast<float>(ring - 1) * cellSize_;
            if (best.back().first < bound * bound)
                break;
        }
        auto scanCell = [&](int64_t dx, int64_t dy, int64_t dz) {
            CellSpan span =
                findCell(key(c[0] + dx, c[1] + dy, c[2] + dz));
            if (span.count == 0)
                return;
            Workspace &ws = Workspace::local();
            Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
            float *d2 = ws.floats(Workspace::kDistOut,
                                  static_cast<size_t>(span.count));
            dist2Batch(points_, span.begin, span.count, query, d2);
            for (int32_t i = 0; i < span.count; ++i) {
                std::pair<float, int32_t> cand{d2[i], span.begin[i]};
                if (static_cast<int32_t>(best.size()) == k &&
                    !(cand < best.back()))
                    continue;
                best.insert(std::lower_bound(best.begin(), best.end(),
                                             cand),
                            cand);
                if (static_cast<int32_t>(best.size()) > k)
                    best.pop_back();
            }
        };
        // Enumerate only the shell (Chebyshev distance == ring): the
        // full dz column where dx or dy is already on the ring edge,
        // otherwise just the two dz end caps.
        for (int64_t dx = -ring; dx <= ring; ++dx) {
            for (int64_t dy = -ring; dy <= ring; ++dy) {
                if (std::abs(dx) == ring || std::abs(dy) == ring) {
                    for (int64_t dz = -ring; dz <= ring; ++dz)
                        scanCell(dx, dy, dz);
                } else {
                    scanCell(dx, dy, -ring);
                    if (ring > 0)
                        scanCell(dx, dy, ring);
                }
            }
        }
    }
    for (size_t i = 0; i < best.size(); ++i)
        out[i] = best[i].second;
}

} // namespace mesorasi::neighbor
