/**
 * @file
 * Tests for the pluggable search-backend layer: cross-backend parity
 * (identical k-NN and ball-query results, ties broken by index), the
 * name registry/factory, and the Auto selection policy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "hwsim/agg_unit.hpp"
#include "neighbor/search_backend.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::neighbor {
namespace {

using mesorasi::Rng;

std::vector<float>
randomRows(Rng &rng, int32_t n, int32_t dim)
{
    std::vector<float> data(static_cast<size_t>(n) * dim);
    for (auto &v : data)
        v = rng.uniform(-1.0f, 1.0f);
    return data;
}

std::vector<int32_t>
someQueries(int32_t n)
{
    std::vector<int32_t> q;
    for (int32_t i = 0; i < n; i += std::max(1, n / 23))
        q.push_back(i);
    return q;
}

/** All registered backends applicable to a view of this dimension. */
std::vector<std::string>
applicableBackends(int32_t dim)
{
    std::vector<std::string> names = registeredBackendNames();
    if (dim != 3)
        names.erase(std::remove(names.begin(), names.end(), "grid"),
                    names.end());
    return names;
}

TEST(BackendParity, KnnIdenticalAcrossBackends)
{
    for (auto [n, dim, k] : {std::tuple<int32_t, int32_t, int32_t>{
                                 400, 3, 16},
                             {150, 3, 8},
                             {200, 8, 12},
                             {64, 32, 7}}) {
        Rng rng(100 + n + dim);
        auto data = randomRows(rng, n, dim);
        PointsView v(data.data(), n, dim);
        auto queries = someQueries(n);
        SearchHints hints;
        hints.numQueries = static_cast<int32_t>(queries.size());
        hints.k = k;

        auto ref = makeBackendByName("brute_force", v, hints)
                       ->knnTable(queries, k);
        for (const std::string &name : applicableBackends(dim)) {
            auto got =
                makeBackendByName(name, v, hints)->knnTable(queries, k);
            ASSERT_EQ(ref.size(), got.size()) << name;
            for (int32_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(ref[i].neighbors, got[i].neighbors)
                    << name << " n=" << n << " dim=" << dim
                    << " query " << queries[i];
        }
    }
}

TEST(BackendParity, BallIdenticalAcrossBackends)
{
    for (auto [n, dim, maxK, radius] :
         {std::tuple<int32_t, int32_t, int32_t, float>{400, 3, 12, 0.4f},
          {150, 3, 64, 0.9f}, // large ball: exercises truncation
          {200, 8, 16, 1.1f}}) {
        Rng rng(200 + n + dim);
        auto data = randomRows(rng, n, dim);
        PointsView v(data.data(), n, dim);
        auto queries = someQueries(n);
        SearchHints hints;
        hints.numQueries = static_cast<int32_t>(queries.size());
        hints.k = maxK;
        hints.radius = radius;

        auto ref = makeBackendByName("brute_force", v, hints)
                       ->ballTable(queries, radius, maxK);
        for (const std::string &name : applicableBackends(dim)) {
            auto got = makeBackendByName(name, v, hints)
                           ->ballTable(queries, radius, maxK);
            ASSERT_EQ(ref.size(), got.size()) << name;
            for (int32_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(ref[i].neighbors, got[i].neighbors)
                    << name << " n=" << n << " dim=" << dim
                    << " query " << queries[i];
        }
    }
}

TEST(BackendParity, UnpaddedBallKeepsShortGroups)
{
    Rng rng(5);
    auto data = randomRows(rng, 120, 3);
    PointsView v(data.data(), 120, 3);
    std::vector<int32_t> queries{0, 17, 60, 119};
    for (const std::string &name : applicableBackends(3)) {
        auto backend = makeBackendByName(name, v);
        for (int32_t q : queries) {
            // Tight radius: groups may hold fewer than maxK members but
            // always include the centroid itself.
            auto ball = backend->radius(v.row(q), 0.05f, 8);
            EXPECT_GE(ball.size(), 1u) << name;
            EXPECT_LE(ball.size(), 8u) << name;
            EXPECT_EQ(ball[0], q) << name;
        }
    }
}

TEST(BackendParity, UnderfullBallsPadToMaxKAcrossBackends)
{
    // A radius so tight that every ball holds only its own center: all
    // three backends must pad the entry to exactly maxK copies of the
    // centroid, so executors that index neighbors[j] for j < k and the
    // AU's non-empty-entry invariant stay safe.
    Rng rng(8);
    auto data = randomRows(rng, 120, 3);
    PointsView v(data.data(), 120, 3);
    std::vector<int32_t> queries{0, 17, 60, 119};
    for (const std::string &name : applicableBackends(3)) {
        auto nit =
            makeBackendByName(name, v)->ballTable(queries, 1e-5f, 8);
        ASSERT_EQ(nit.size(), static_cast<int32_t>(queries.size()))
            << name;
        for (int32_t i = 0; i < nit.size(); ++i) {
            ASSERT_EQ(nit[i].neighbors.size(), 8u) << name;
            for (int32_t n : nit[i].neighbors)
                EXPECT_EQ(n, queries[i]) << name;
        }
    }
}

TEST(BackendParity, EmptyBallsPadWithCentroid)
{
    // A backend may legitimately return nothing inside the radius
    // (approximate or filtered indexes, external-query adapters);
    // ballTable must still emit full entries seeded with the centroid.
    class EmptyBackend final : public SearchBackend
    {
      public:
        explicit EmptyBackend(const PointsView &p) : SearchBackend(p) {}
        const char *name() const override { return "empty"; }
        void
        knnInto(const float *, int32_t k, int32_t *out) const override
        {
            std::fill(out, out + k, 0);
        }
        int32_t
        radiusInto(const float *, float, int32_t, int32_t *) const override
        {
            return 0;
        }
    };

    Rng rng(9);
    auto data = randomRows(rng, 30, 3);
    PointsView v(data.data(), 30, 3);
    EmptyBackend backend(v);
    std::vector<int32_t> queries{3, 11, 29};
    auto nit = backend.ballTable(queries, 0.5f, 4);
    ASSERT_EQ(nit.size(), 3);
    for (int32_t i = 0; i < nit.size(); ++i) {
        ASSERT_EQ(nit[i].neighbors.size(), 4u);
        for (int32_t n : nit[i].neighbors)
            EXPECT_EQ(n, queries[i]);
    }
    // The padded table satisfies the AU's non-empty-entry requirement.
    hwsim::AggregationUnit au(hwsim::AuConfig{}, hwsim::NpuConfig{},
                              hwsim::EnergyConfig{});
    auto stats = au.aggregate(nit, 30, 8);
    EXPECT_GT(stats.cycles, 0);
}

TEST(BackendRegistry, ShipsThreeBackends)
{
    auto names = registeredBackendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "brute_force"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "grid"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "kdtree"),
              names.end());
}

TEST(BackendRegistry, NamesRoundTripAndRejectUnknown)
{
    EXPECT_EQ(backendFromName("auto"), Backend::Auto);
    for (Backend b :
         {Backend::BruteForce, Backend::Grid, Backend::KdTree})
        EXPECT_EQ(backendFromName(backendName(b)), b);
    EXPECT_THROW(backendFromName("octree"), mesorasi::UsageError);

    Rng rng(6);
    auto data = randomRows(rng, 10, 3);
    PointsView v(data.data(), 10, 3);
    EXPECT_THROW(makeBackendByName("octree", v), mesorasi::UsageError);
}

TEST(BackendRegistry, CustomBackendIsConstructible)
{
    registerSearchBackend(
        "test_alias", [](const PointsView &p, const SearchHints &h) {
            return makeBackendByName("brute_force", p, h);
        });
    Rng rng(7);
    auto data = randomRows(rng, 20, 3);
    PointsView v(data.data(), 20, 3);
    auto backend = makeBackendByName("test_alias", v);
    EXPECT_STREQ(backend->name(), "brute_force");
    auto nit = backend->knnTable({0, 5}, 3);
    EXPECT_EQ(nit.size(), 2);
}

TEST(BackendRegistry, IntoOnlyBackendServesEveryQuery)
{
    // A registered backend implements only knnInto/radiusInto (here a
    // plain per-point scan, independent of the shipped backends); the
    // allocating queries and both table builders come from the base
    // class and must agree with brute_force exactly.
    class ScanBackend final : public SearchBackend
    {
      public:
        explicit ScanBackend(const PointsView &p) : SearchBackend(p) {}
        const char *name() const override { return "scan"; }
        void
        knnInto(const float *q, int32_t k, int32_t *out) const override
        {
            auto ranked = rank(q, std::numeric_limits<float>::infinity());
            for (int32_t j = 0; j < k; ++j)
                out[j] = ranked[static_cast<size_t>(j)].second;
        }
        int32_t
        radiusInto(const float *q, float r, int32_t maxK,
                   int32_t *out) const override
        {
            auto ranked = rank(q, r * r);
            int32_t count = std::min<int32_t>(
                maxK, static_cast<int32_t>(ranked.size()));
            for (int32_t j = 0; j < count; ++j)
                out[j] = ranked[static_cast<size_t>(j)].second;
            return count;
        }

      private:
        std::vector<std::pair<float, int32_t>>
        rank(const float *q, float maxD2) const
        {
            std::vector<std::pair<float, int32_t>> ranked;
            for (int32_t i = 0; i < points_.size(); ++i) {
                float d2 = points_.dist2To(i, q);
                if (d2 <= maxD2)
                    ranked.push_back({d2, i});
            }
            std::sort(ranked.begin(), ranked.end());
            return ranked;
        }
    };
    registerSearchBackend("into_only",
                          [](const PointsView &p, const SearchHints &) {
                              return std::unique_ptr<SearchBackend>(
                                  std::make_unique<ScanBackend>(p));
                          });

    Rng rng(12);
    auto data = randomRows(rng, 90, 3);
    PointsView v(data.data(), 90, 3);
    auto custom = makeBackendByName("into_only", v);
    auto ref = makeBackendByName("brute_force", v);
    EXPECT_STREQ(custom->name(), "scan");
    std::vector<int32_t> queries = someQueries(90);
    for (int32_t q : queries) {
        EXPECT_EQ(custom->knn(v.row(q), 7), ref->knn(v.row(q), 7));
        EXPECT_EQ(custom->radius(v.row(q), 0.5f),
                  ref->radius(v.row(q), 0.5f));
        EXPECT_EQ(custom->radius(v.row(q), 0.5f, 4),
                  ref->radius(v.row(q), 0.5f, 4));
    }
    // Unbounded radius: every point, bounded by points().size().
    EXPECT_EQ(custom->radius(v.row(0), 100.0f).size(), 90u);

    auto gotKnn = custom->knnTable(queries, 7);
    auto refKnn = ref->knnTable(queries, 7);
    // 0.1 leaves some balls underfull, so the padding rule runs too.
    auto gotBall = custom->ballTable(queries, 0.1f, 6);
    auto refBall = ref->ballTable(queries, 0.1f, 6);
    ASSERT_EQ(gotKnn.size(), refKnn.size());
    ASSERT_EQ(gotBall.size(), refBall.size());
    for (int32_t i = 0; i < gotKnn.size(); ++i) {
        EXPECT_EQ(gotKnn[i].centroid, queries[static_cast<size_t>(i)]);
        EXPECT_EQ(gotKnn[i].neighbors, refKnn[i].neighbors);
        EXPECT_EQ(gotBall[i].centroid, refBall[i].centroid);
        EXPECT_EQ(gotBall[i].neighbors, refBall[i].neighbors);
        EXPECT_EQ(gotBall[i].neighbors.size(), 6u);
    }
}

TEST(AutoPolicy, PicksSensibleBackends)
{
    Rng rng(8);
    auto small = randomRows(rng, 64, 3);
    auto big = randomRows(rng, 4096, 3);
    auto feat = randomRows(rng, 1024, 64);

    SearchHints knn_hints;
    knn_hints.k = 16;
    SearchHints ball_hints;
    ball_hints.k = 32;
    ball_hints.radius = 0.2f;

    // Tiny cloud: index construction never pays off.
    EXPECT_EQ(chooseBackend({small.data(), 64, 3}, knn_hints),
              Backend::BruteForce);
    // 3-D ball query at scale: the grid.
    EXPECT_EQ(chooseBackend({big.data(), 4096, 3}, ball_hints),
              Backend::Grid);
    // 3-D k-NN at scale: the KD-tree.
    EXPECT_EQ(chooseBackend({big.data(), 4096, 3}, knn_hints),
              Backend::KdTree);
    // High-dimensional feature space (DGCNN): exhaustive scan.
    EXPECT_EQ(chooseBackend({feat.data(), 1024, 64}, knn_hints),
              Backend::BruteForce);

    // makeBackend(Auto) constructs what the policy picked.
    auto backend =
        makeBackend(Backend::Auto, {big.data(), 4096, 3}, ball_hints);
    EXPECT_STREQ(backend->name(), "grid");
}

TEST(AutoPolicy, GridRefusesNon3d)
{
    Rng rng(9);
    auto data = randomRows(rng, 100, 5);
    PointsView v(data.data(), 100, 5);
    EXPECT_THROW(makeBackend(Backend::Grid, v), mesorasi::UsageError);
}

// --- Pipeline-level parity: the executor must produce identical
// features no matter which backend answers the N stage. --------------

core::ModuleState
torusState(int32_t n)
{
    Rng rng(11);
    core::ModuleState state;
    state.coords = tensor::Tensor(n, 3);
    for (int32_t i = 0; i < n; ++i) {
        float u = rng.uniform(0.0f, 6.2831853f);
        float w = rng.uniform(0.0f, 6.2831853f);
        float r = 0.7f + 0.25f * std::cos(w);
        state.coords(i, 0) = r * std::cos(u);
        state.coords(i, 1) = r * std::sin(u);
        state.coords(i, 2) = 0.25f * std::sin(w);
    }
    state.features = state.coords;
    return state;
}

TEST(BackendRegistry, PipelineRoutesThroughCustomBackend)
{
    registerSearchBackend(
        "counting", [](const PointsView &p, const SearchHints &h) {
            return makeBackendByName("brute_force", p, h);
        });
    core::ModuleConfig cfg;
    cfg.name = "m";
    cfg.numCentroids = 32;
    cfg.k = 8;
    cfg.search = core::SearchKind::Knn;
    cfg.customBackend = "counting";
    cfg.mlpWidths = {16};
    Rng wrng(3);
    core::ModuleExecutor ex(cfg, 3, wrng);
    core::ModuleState state = torusState(128);
    Rng srng(4);
    core::ModuleResult r =
        ex.run(state, core::PipelineKind::Delayed, srng);
    EXPECT_EQ(r.out.features.rows(), 32);

    cfg.customBackend = "no_such_backend";
    core::ModuleExecutor bad(cfg, 3, wrng);
    Rng srng2(4);
    EXPECT_THROW(bad.run(state, core::PipelineKind::Delayed, srng2),
                 mesorasi::UsageError);
}

TEST(BackendParity, PipelineOutputsIdenticalAcrossBackends)
{
    core::ModuleState state = torusState(512);
    for (core::SearchKind search :
         {core::SearchKind::Knn, core::SearchKind::Ball}) {
        std::optional<tensor::Tensor> ref;
        for (Backend b :
             {Backend::BruteForce, Backend::Grid, Backend::KdTree}) {
            core::ModuleConfig cfg;
            cfg.name = "m";
            cfg.numCentroids = 128;
            cfg.k = 16;
            cfg.search = search;
            cfg.radius = 0.3f;
            cfg.backend = b;
            cfg.mlpWidths = {32, 64};
            Rng wrng(3);
            core::ModuleExecutor ex(cfg, 3, wrng);
            Rng srng(4);
            core::ModuleResult r =
                ex.run(state, core::PipelineKind::Delayed, srng);
            if (!ref)
                ref = r.out.features;
            else
                EXPECT_EQ(ref->maxAbsDiff(r.out.features), 0.0f)
                    << "backend " << backendName(b);
        }
    }
}

} // namespace
} // namespace mesorasi::neighbor
