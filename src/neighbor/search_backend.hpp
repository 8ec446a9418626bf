/**
 * @file
 * Pluggable neighbor-search backends.
 *
 * Neighbor search (the N stage of every N-A-F module) is decoupled from
 * feature computation in the delayed-aggregation pipeline, so the
 * executor must not care *how* neighbors are found. SearchBackend is the
 * unified interface: exact k-NN and ball (radius) queries over a
 * dimension-generic PointsView, with every backend returning neighbors
 * sorted by (distance, index) so results are identical across backends
 * — ties broken by index — and bitwise reproducible.
 *
 * A backend implements one query path: knnInto and radiusInto, which
 * write into caller-owned memory. Everything else — the allocating
 * knn/radius, the flat-row table fill the compiled engine runs, and
 * the NeighborIndexTable builders — is written once here over those
 * two calls. Three backends ship by default, each a SearchBackend
 * itself:
 *  - brute_force (BruteForce, brute_force.hpp): exhaustive O(N) scan
 *    per query; the reference the others are tested against, fastest
 *    for small clouds and the only sensible choice in high-dimensional
 *    feature spaces.
 *  - grid (GridIndex, grid.hpp): CSR uniform grid, 3-D only;
 *    near-constant-time ball queries on LiDAR-scale clouds,
 *    expanding-shell exact k-NN.
 *  - kdtree (KdTree, kdtree.hpp): median-split KD-tree; the general
 *    fast path.
 *
 * Backends are registered by name in a small factory (the pattern of a
 * compiler target registry), and Backend::Auto picks one per module from
 * the query shape (N, k, radius, dimensionality). Table fills are
 * parallelized over queries via the shared thread pool.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "neighbor/nit.hpp"
#include "neighbor/points_view.hpp"

namespace mesorasi::neighbor {

/** Backend selector carried by module configurations. */
enum class Backend
{
    Auto,       ///< pick per query shape (see chooseBackend)
    BruteForce,
    Grid,
    KdTree,
};

/** Canonical registry name of a backend ("auto" for Backend::Auto). */
const char *backendName(Backend b);

/** Inverse of backendName; throws UsageError on unknown names. */
Backend backendFromName(const std::string &name);

/** Query-shape hints used by Auto selection and backend tuning. */
struct SearchHints
{
    /** Expected query count (0 = unknown); a handful of queries never
     *  amortizes an index build, so Auto falls back to brute force. */
    int32_t numQueries = 0;
    int32_t k = 0;       ///< neighbors per query (0 = unknown)
    float radius = 0.0f; ///< ball radius (0 = k-NN workload)
};

/**
 * Abstract search structure over one point set. The view must outlive
 * the backend. Queries are const and thread-safe; the table fills fan
 * the per-centroid queries out across the global thread pool.
 */
class SearchBackend
{
  public:
    virtual ~SearchBackend() = default;

    /** Registry name of the concrete backend. */
    virtual const char *name() const = 0;

    /**
     * k nearest neighbors of the external point @p query (dim floats),
     * sorted by (distance, index): writes exactly k indices to
     * out[0..k). Requires 0 < k <= points().size(). Implementations
     * keep their scratch in grow-only per-thread storage, so the
     * compiled engine's steady state never allocates.
     */
    virtual void knnInto(const float *query, int32_t k,
                         int32_t *out) const = 0;

    /** All points within @p radius of @p query, sorted by (distance,
     *  index) and truncated to @p maxK (must be positive): writes them
     *  to @p out and returns the count. Same scratch contract as
     *  knnInto. */
    virtual int32_t radiusInto(const float *query, float radius,
                               int32_t maxK, int32_t *out) const = 0;

    /** knnInto into a fresh vector. */
    std::vector<int32_t> knn(const float *query, int32_t k) const;

    /** radiusInto into a fresh vector; maxK <= 0 keeps every point in
     *  the ball (bounded by points().size()). */
    std::vector<int32_t> radius(const float *query, float r,
                                int32_t maxK = -1) const;

    /**
     * Flat-row table fill: row i of @p out (k indices at out + i*k)
     * receives the neighbors of point queries[i]. With @p radius > 0
     * each row is a ball query truncated to k and padded by padBallRow
     * (nit.hpp); otherwise it is the k-NN row. Fans out over the
     * global thread pool (grain 4) and allocates nothing beyond the
     * backend's per-thread query scratch.
     */
    void fillTable(const int32_t *queries, int32_t numQueries, int32_t k,
                   float radius, int32_t *out) const;

    /** k-NN table over the query indices (fillTable wrapped in a
     *  NeighborIndexTable). */
    NeighborIndexTable knnTable(const std::vector<int32_t> &queries,
                                int32_t k) const;

    /** Ball-query table over the query indices: every entry holds
     *  exactly maxK neighbors, padded by padBallRow. */
    NeighborIndexTable ballTable(const std::vector<int32_t> &queries,
                                 float radius, int32_t maxK) const;

    const PointsView &points() const { return points_; }

  protected:
    explicit SearchBackend(const PointsView &points) : points_(points) {}

    PointsView points_;
};

/** Auto policy: choose a backend from the point set and query shape. */
Backend chooseBackend(const PointsView &points, const SearchHints &hints);

/** Construct a backend; Backend::Auto goes through chooseBackend. */
std::unique_ptr<SearchBackend> makeBackend(Backend kind,
                                           const PointsView &points,
                                           const SearchHints &hints = {});

// --- Name registry ----------------------------------------------------

using BackendFactory = std::function<std::unique_ptr<SearchBackend>(
    const PointsView &, const SearchHints &)>;

/** Register a backend constructor under @p name (replaces existing). */
void registerSearchBackend(const std::string &name,
                           BackendFactory factory);

/** Construct a registered backend by name; throws UsageError if the
 *  name is unknown. */
std::unique_ptr<SearchBackend>
makeBackendByName(const std::string &name, const PointsView &points,
                  const SearchHints &hints = {});

/** Sorted names of all registered backends. */
std::vector<std::string> registeredBackendNames();

} // namespace mesorasi::neighbor
