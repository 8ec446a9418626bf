/**
 * @file
 * KD-tree over D-dimensional points for exact k-NN and radius queries:
 * the "kdtree" search backend.
 *
 * Median-split construction, branch-and-bound traversal. The general
 * fast path of the software pipelines, validated against brute force
 * in the test suite.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "neighbor/search_backend.hpp"

namespace mesorasi::neighbor {

/** Exact KD-tree; the view must outlive the tree. */
class KdTree final : public SearchBackend
{
  public:
    /** Build over all points of @p points. */
    explicit KdTree(const PointsView &points, int32_t leafSize = 16);

    const char *name() const override { return "kdtree"; }

    /** The traversal heap lives in grow-only per-thread scratch. */
    void knnInto(const float *query, int32_t k,
                 int32_t *out) const override;

    int32_t radiusInto(const float *query, float radius, int32_t maxK,
                       int32_t *out) const override;

    /** Number of internal nodes (diagnostics). */
    int32_t numNodes() const { return static_cast<int32_t>(nodes_.size()); }

  private:
    struct Node
    {
        // Leaf when count > 0: points_[start, start+count).
        int32_t start = 0;
        int32_t count = 0;
        // Internal when count == 0: split axis/value and children.
        int32_t axis = 0;
        float split = 0.0f;
        int32_t left = -1;
        int32_t right = -1;
    };

    struct HeapItem
    {
        float dist2;
        int32_t index;
        // Ties break by index so results match the other backends
        // deterministically.
        bool
        operator<(const HeapItem &o) const
        {
            return dist2 != o.dist2 ? dist2 < o.dist2 : index < o.index;
        }
    };

    int32_t build(int32_t begin, int32_t end, int32_t depth);

    void searchKnn(int32_t node, const float *query, int32_t k,
                   std::vector<HeapItem> &heap) const;

    void searchRadius(int32_t node, const float *query, float r2,
                      std::vector<HeapItem> &found) const;

    int32_t leafSize_;
    std::vector<int32_t> order_;  ///< permutation of point indices
    std::vector<Node> nodes_;
};

} // namespace mesorasi::neighbor
