/**
 * @file
 * Uniform-grid spatial index for 3-D queries: the "grid" search
 * backend.
 *
 * Complements the KD-tree: for the LiDAR-scale clouds produced by
 * KittiSim, a flat grid with cell size ~= radius answers ball queries in
 * near-constant time per query, and exact k-NN expands cell shells.
 * 3-D only (cells hash xyz).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "neighbor/search_backend.hpp"

namespace mesorasi::neighbor {

/**
 * Grid over a 3-D PointsView; the view must outlive the index.
 * Queries are exact: ball queries scan the cells overlapping the ball,
 * k-NN expands Chebyshev cell shells until the k-th best distance is
 * provably inside the scanned region.
 *
 * Occupied cells are stored in a flat CSR layout — sorted cell keys, a
 * prefix-offset array, and one contiguous point-index array (cell-major,
 * ascending index within each cell) — instead of a per-cell
 * std::vector hash map. Cell lookup is a binary search over the sorted
 * keys; iterating a cell walks a contiguous span, which feeds the
 * batched SIMD dist2 kernels directly and allocates nothing after
 * build.
 */
class GridIndex final : public SearchBackend
{
  public:
    /** Index the 3-D view @p points. The cell size comes from the
     *  query-shape hints: ball workloads get cell size == radius; k-NN
     *  workloads size the cell so one cell holds roughly the expected
     *  group (hints.k, 16 if unknown). */
    explicit GridIndex(const PointsView &points,
                       const SearchHints &hints = {});

    const char *name() const override { return "grid"; }

    /** Ranking scratch lives in grow-only per-thread storage. */
    void knnInto(const float *query, int32_t k,
                 int32_t *out) const override;

    int32_t radiusInto(const float *query, float radius, int32_t maxK,
                       int32_t *out) const override;

    /** Number of occupied cells (diagnostics). */
    size_t numCells() const { return cellKeys_.size(); }

    float cellSize() const { return cellSize_; }

  private:
    /** Contiguous point-index span of one occupied cell. */
    struct CellSpan
    {
        const int32_t *begin = nullptr;
        int32_t count = 0;
    };

    int64_t key(int64_t cx, int64_t cy, int64_t cz) const;
    void cellOf(const float *p, int64_t c[3]) const;

    /** CSR lookup: span of the cell with @p key (count 0 if empty). */
    CellSpan findCell(int64_t key) const;

    float cellSize_ = 0.0f;
    float origin_[3] = {0.0f, 0.0f, 0.0f};
    int64_t loCell_[3] = {0, 0, 0}; ///< cell-coordinate bounds
    int64_t hiCell_[3] = {0, 0, 0};

    // CSR cell storage: cellKeys_ (ascending), cellStart_
    // (numCells + 1 offsets into cellPoints_), cellPoints_ (point ids,
    // cell-major, ascending within a cell).
    std::vector<int64_t> cellKeys_;
    std::vector<int32_t> cellStart_;
    std::vector<int32_t> cellPoints_;
};

} // namespace mesorasi::neighbor
