#include "neighbor/kdtree.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/workspace.hpp"
#include "neighbor/dist_batch.hpp"

namespace mesorasi::neighbor {

KdTree::KdTree(const PointsView &points, int32_t leafSize)
    : SearchBackend(points), leafSize_(leafSize)
{
    MESO_REQUIRE(leafSize > 0, "leaf size must be positive");
    MESO_REQUIRE(points.size() > 0, "cannot build tree over no points");
    order_.resize(points.size());
    for (int32_t i = 0; i < points.size(); ++i)
        order_[i] = i;
    nodes_.reserve(2 * points.size() / leafSize + 2);
    build(0, points.size(), 0);
}

int32_t
KdTree::build(int32_t begin, int32_t end, int32_t depth)
{
    int32_t id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();

    if (end - begin <= leafSize_) {
        nodes_[id].start = begin;
        nodes_[id].count = end - begin;
        return id;
    }

    // Pick the axis with the largest spread at this node (better balance
    // than round-robin for skewed feature-space data).
    int32_t dim = points_.dim();
    int32_t axis = depth % dim;
    float best_spread = -1.0f;
    for (int32_t d = 0; d < dim; ++d) {
        float lo = points_.row(order_[begin])[d];
        float hi = lo;
        for (int32_t i = begin + 1; i < end; ++i) {
            float v = points_.row(order_[i])[d];
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        if (hi - lo > best_spread) {
            best_spread = hi - lo;
            axis = d;
        }
    }

    int32_t mid = (begin + end) / 2;
    std::nth_element(order_.begin() + begin, order_.begin() + mid,
                     order_.begin() + end,
                     [&](int32_t a, int32_t b) {
                         return points_.row(a)[axis] <
                                points_.row(b)[axis];
                     });

    float split = points_.row(order_[mid])[axis];
    int32_t left = build(begin, mid, depth + 1);
    int32_t right = build(mid, end, depth + 1);
    nodes_[id].count = 0;
    nodes_[id].axis = axis;
    nodes_[id].split = split;
    nodes_[id].left = left;
    nodes_[id].right = right;
    return id;
}

void
KdTree::searchKnn(int32_t node, const float *query, int32_t k,
                  std::vector<HeapItem> &heap) const
{
    const Node &nd = nodes_[node];
    if (nd.count > 0) {
        // Leaf: one batched (SIMD) distance pass over the leaf's
        // contiguous order_ span, then the heap update per candidate.
        Workspace &ws = Workspace::local();
        Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
        float *d2s =
            ws.floats(Workspace::kDistOut, static_cast<size_t>(nd.count));
        dist2Batch(points_, order_.data() + nd.start, nd.count, query,
                   d2s);
        for (int32_t i = 0; i < nd.count; ++i) {
            int32_t idx = order_[nd.start + i];
            float d2 = d2s[i];
            if (static_cast<int32_t>(heap.size()) < k) {
                heap.push_back({d2, idx});
                std::push_heap(heap.begin(), heap.end());
            } else if (HeapItem{d2, idx} < heap.front()) {
                std::pop_heap(heap.begin(), heap.end());
                heap.back() = {d2, idx};
                std::push_heap(heap.begin(), heap.end());
            }
        }
        return;
    }

    float diff = query[nd.axis] - nd.split;
    int32_t near = diff <= 0.0f ? nd.left : nd.right;
    int32_t far = diff <= 0.0f ? nd.right : nd.left;
    searchKnn(near, query, k, heap);
    // Prune the far side if the splitting plane is farther than the
    // current k-th best (<=: an equidistant point with a smaller index
    // must still be visited for deterministic tie-breaking).
    if (static_cast<int32_t>(heap.size()) < k ||
        diff * diff <= heap.front().dist2)
        searchKnn(far, query, k, heap);
}

void
KdTree::searchRadius(int32_t node, const float *query, float r2,
                     std::vector<HeapItem> &found) const
{
    const Node &nd = nodes_[node];
    if (nd.count > 0) {
        Workspace &ws = Workspace::local();
        Workspace::ScopedClaim claim(ws, Workspace::kDistOut);
        float *d2s =
            ws.floats(Workspace::kDistOut, static_cast<size_t>(nd.count));
        dist2Batch(points_, order_.data() + nd.start, nd.count, query,
                   d2s);
        for (int32_t i = 0; i < nd.count; ++i) {
            if (d2s[i] <= r2)
                found.push_back({d2s[i], order_[nd.start + i]});
        }
        return;
    }
    float diff = query[nd.axis] - nd.split;
    int32_t near = diff <= 0.0f ? nd.left : nd.right;
    int32_t far = diff <= 0.0f ? nd.right : nd.left;
    searchRadius(near, query, r2, found);
    if (diff * diff <= r2)
        searchRadius(far, query, r2, found);
}

void
KdTree::knnInto(const float *query, int32_t k, int32_t *out) const
{
    MESO_REQUIRE(k > 0 && k <= points_.size(),
                 "k=" << k << " with " << points_.size() << " points");
    // Grow-only per-thread traversal heap: the Into path's only
    // scratch, so steady-state queries never allocate.
    static thread_local std::vector<HeapItem> heap;
    heap.clear();
    searchKnn(0, query, k, heap);
    std::sort_heap(heap.begin(), heap.end());
    for (size_t i = 0; i < heap.size(); ++i)
        out[i] = heap[i].index;
}

int32_t
KdTree::radiusInto(const float *query, float radius, int32_t maxK,
                   int32_t *out) const
{
    MESO_REQUIRE(radius > 0.0f && maxK > 0,
                 "radius=" << radius << " maxK=" << maxK);
    static thread_local std::vector<HeapItem> found;
    found.clear();
    searchRadius(0, query, radius * radius, found);
    std::sort(found.begin(), found.end());
    int32_t count =
        std::min<int32_t>(maxK, static_cast<int32_t>(found.size()));
    for (int32_t j = 0; j < count; ++j)
        out[j] = found[static_cast<size_t>(j)].index;
    return count;
}

} // namespace mesorasi::neighbor
