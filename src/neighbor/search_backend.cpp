#include "neighbor/search_backend.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "neighbor/brute_force.hpp"
#include "neighbor/grid.hpp"
#include "neighbor/kdtree.hpp"

namespace mesorasi::neighbor {

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Auto: return "auto";
      case Backend::BruteForce: return "brute_force";
      case Backend::Grid: return "grid";
      case Backend::KdTree: return "kdtree";
    }
    return "?";
}

Backend
backendFromName(const std::string &name)
{
    if (name == "auto")
        return Backend::Auto;
    if (name == "brute_force")
        return Backend::BruteForce;
    if (name == "grid")
        return Backend::Grid;
    if (name == "kdtree")
        return Backend::KdTree;
    MESO_REQUIRE(false, "unknown search backend '" << name << "'");
}

// ---------------------------------------------------------------------
// Written once over knnInto/radiusInto: allocating queries and the
// table fill, whose per-centroid queries fan out across the pool.
// ---------------------------------------------------------------------

std::vector<int32_t>
SearchBackend::knn(const float *query, int32_t k) const
{
    MESO_REQUIRE(k > 0 && k <= points_.size(),
                 "k=" << k << " with " << points_.size() << " points");
    std::vector<int32_t> out(static_cast<size_t>(k));
    knnInto(query, k, out.data());
    return out;
}

std::vector<int32_t>
SearchBackend::radius(const float *query, float r, int32_t maxK) const
{
    int32_t cap = maxK > 0 ? maxK : std::max(1, points_.size());
    std::vector<int32_t> out(static_cast<size_t>(cap));
    out.resize(static_cast<size_t>(radiusInto(query, r, cap, out.data())));
    return out;
}

void
SearchBackend::fillTable(const int32_t *queries, int32_t numQueries,
                         int32_t k, float radius, int32_t *out) const
{
    bool knnQuery = !(radius > 0.0f);
    MESO_REQUIRE(k > 0 && (!knnQuery || k <= points_.size()),
                 "k=" << k << " with " << points_.size() << " points");
    for (int32_t i = 0; i < numQueries; ++i)
        MESO_REQUIRE(queries[i] >= 0 && queries[i] < points_.size(),
                     "query " << queries[i]);

    ThreadPool::global().parallelFor(
        numQueries, /*grain=*/4, [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                int32_t q = queries[i];
                int32_t *row = out + i * k;
                if (knnQuery) {
                    knnInto(points_.row(q), k, row);
                } else {
                    // A ball over the indexed set always contains its
                    // own center, but feature-space or custom backends
                    // may legitimately return nothing; the padding rule
                    // keeps every row full either way.
                    int32_t count = radiusInto(points_.row(q), radius, k,
                                               row);
                    padBallRow(row, count, k, q);
                }
            }
        });
}

namespace {

/** Wrap k-wide flat rows into a NeighborIndexTable. */
NeighborIndexTable
tableFromRows(const std::vector<int32_t> &queries, int32_t k,
              const std::vector<int32_t> &rows)
{
    NeighborIndexTable nit(k);
    for (size_t i = 0; i < queries.size(); ++i) {
        const int32_t *row = rows.data() + i * static_cast<size_t>(k);
        nit.add({queries[i], std::vector<int32_t>(row, row + k)});
    }
    return nit;
}

} // namespace

NeighborIndexTable
SearchBackend::knnTable(const std::vector<int32_t> &queries,
                        int32_t k) const
{
    MESO_REQUIRE(k > 0, "k=" << k);
    std::vector<int32_t> rows(queries.size() * static_cast<size_t>(k));
    fillTable(queries.data(), static_cast<int32_t>(queries.size()), k,
              /*radius=*/0.0f, rows.data());
    return tableFromRows(queries, k, rows);
}

NeighborIndexTable
SearchBackend::ballTable(const std::vector<int32_t> &queries, float r,
                         int32_t maxK) const
{
    MESO_REQUIRE(r > 0.0f && maxK > 0, "radius=" << r << " maxK=" << maxK);
    std::vector<int32_t> rows(queries.size() * static_cast<size_t>(maxK));
    fillTable(queries.data(), static_cast<int32_t>(queries.size()), maxK,
              r, rows.data());
    return tableFromRows(queries, maxK, rows);
}

namespace {

// --- Registry ---------------------------------------------------------

struct Registry
{
    std::mutex mutex;
    std::map<std::string, BackendFactory> factories;
};

Registry &
registry()
{
    static Registry r;
    static std::once_flag init;
    std::call_once(init, [] {
        r.factories["brute_force"] = [](const PointsView &p,
                                        const SearchHints &) {
            return std::unique_ptr<SearchBackend>(
                std::make_unique<BruteForce>(p));
        };
        r.factories["kdtree"] = [](const PointsView &p,
                                   const SearchHints &) {
            return std::unique_ptr<SearchBackend>(
                std::make_unique<KdTree>(p));
        };
        r.factories["grid"] = [](const PointsView &p,
                                 const SearchHints &h) {
            return std::unique_ptr<SearchBackend>(
                std::make_unique<GridIndex>(p, h));
        };
    });
    return r;
}

} // namespace

void
registerSearchBackend(const std::string &name, BackendFactory factory)
{
    MESO_REQUIRE(!name.empty() && factory, "bad backend registration");
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.factories[name] = std::move(factory);
}

std::unique_ptr<SearchBackend>
makeBackendByName(const std::string &name, const PointsView &points,
                  const SearchHints &hints)
{
    BackendFactory factory;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        auto it = r.factories.find(name);
        MESO_REQUIRE(it != r.factories.end(),
                     "no search backend registered as '" << name << "'");
        factory = it->second;
    }
    return factory(points, hints);
}

std::vector<std::string>
registeredBackendNames()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto &[name, factory] : r.factories)
        names.push_back(name);
    return names;
}

// ---------------------------------------------------------------------
// Auto policy
// ---------------------------------------------------------------------

Backend
chooseBackend(const PointsView &points, const SearchHints &hints)
{
    int32_t n = points.size();
    int32_t dim = points.dim();

    // Tiny clouds or almost no queries to amortize the build over:
    // index construction costs more than it saves.
    if (n <= 128 || (hints.numQueries > 0 && hints.numQueries <= 4))
        return Backend::BruteForce;
    // 3-D ball queries map perfectly onto a grid with cell ~= radius.
    if (dim == 3 && hints.radius > 0.0f)
        return Backend::Grid;
    // High-dimensional feature-space search (DGCNN's dynamic graphs):
    // KD-tree pruning collapses, so exhaustive scan wins except at
    // scales where even a degraded tree helps.
    if (dim > 8)
        return n <= 4096 ? Backend::BruteForce : Backend::KdTree;
    return Backend::KdTree;
}

std::unique_ptr<SearchBackend>
makeBackend(Backend kind, const PointsView &points,
            const SearchHints &hints)
{
    if (kind == Backend::Auto)
        kind = chooseBackend(points, hints);
    return makeBackendByName(backendName(kind), points, hints);
}

} // namespace mesorasi::neighbor
