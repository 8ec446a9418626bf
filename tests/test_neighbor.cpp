/**
 * @file
 * Tests for neighbor search: the brute_force reference backend, KD-tree
 * and grid equivalence with it (parameterized property sweeps), and
 * the NIT structure.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "geom/shapes.hpp"
#include "neighbor/grid.hpp"
#include "neighbor/kdtree.hpp"
#include "neighbor/nit.hpp"
#include "neighbor/points_view.hpp"
#include "neighbor/search_backend.hpp"

namespace mesorasi::neighbor {
namespace {

using mesorasi::Rng;

/** Random D-dimensional rows for dimension-generic tests. */
std::vector<float>
randomRows(Rng &rng, int32_t n, int32_t dim)
{
    std::vector<float> data(static_cast<size_t>(n) * dim);
    for (auto &v : data)
        v = rng.uniform(-1.0f, 1.0f);
    return data;
}

TEST(PointsView, Dist2Matches)
{
    std::vector<float> data{0, 0, 0, 3, 4, 0};
    PointsView v(data.data(), 2, 3);
    EXPECT_FLOAT_EQ(v.dist2(0, 1), 25.0f);
    float q[3] = {0, 0, 2};
    EXPECT_FLOAT_EQ(v.dist2To(0, q), 4.0f);
}

TEST(Nit, PackedBytesMatchesPaperSizing)
{
    // Paper Sec. VI: a 64-neighbor entry is 98 bytes at 12-bit indices
    // ((1 + 64) * 12 bits = 780 bits -> 98 bytes).
    NeighborIndexTable nit(64);
    NitEntry e;
    e.centroid = 0;
    e.neighbors.assign(64, 1);
    nit.add(e);
    EXPECT_EQ(nit.packedBytes(), 98);
}

TEST(Nit, TotalAndMaxReferenced)
{
    NeighborIndexTable nit(4);
    nit.add({5, {1, 2, 3}});
    nit.add({9, {7}});
    EXPECT_EQ(nit.totalNeighbors(), 4);
    EXPECT_EQ(nit.maxReferencedIndex(), 9);
    EXPECT_EQ(nit.size(), 2);
}

TEST(Nit, RejectsOversizedEntry)
{
    NeighborIndexTable nit(2);
    EXPECT_THROW(nit.add({0, {1, 2, 3}}), mesorasi::UsageError);
}

TEST(Nit, PadBallRowSeedsEmptyAndRepeatsNearest)
{
    // The one ball-padding rule every table fill uses.
    int32_t row[5] = {7, 3, -1, -1, -1};
    padBallRow(row, 2, 5, 9);
    EXPECT_EQ(std::vector<int32_t>(row, row + 5),
              (std::vector<int32_t>{7, 3, 7, 7, 7}));
    int32_t empty[3] = {-1, -1, -1};
    padBallRow(empty, 0, 3, 9);
    EXPECT_EQ(std::vector<int32_t>(empty, empty + 3),
              (std::vector<int32_t>{9, 9, 9}));
    int32_t full[2] = {4, 5};
    padBallRow(full, 2, 2, 9);
    EXPECT_EQ(full[0], 4);
    EXPECT_EQ(full[1], 5);
}

TEST(BruteForce, KnnSelfIsFirstNeighbor)
{
    Rng rng(1);
    auto data = randomRows(rng, 50, 3);
    PointsView v(data.data(), 50, 3);
    auto nit = makeBackendByName("brute_force", v)->knnTable({10, 20}, 5);
    ASSERT_EQ(nit.size(), 2);
    // A point's nearest neighbor is itself (distance 0).
    EXPECT_EQ(nit[0].neighbors[0], 10);
    EXPECT_EQ(nit[1].neighbors[0], 20);
}

TEST(BruteForce, KnnOrderedByDistance)
{
    Rng rng(2);
    auto data = randomRows(rng, 80, 3);
    PointsView v(data.data(), 80, 3);
    auto nit = makeBackendByName("brute_force", v)->knnTable({0}, 10);
    for (size_t j = 1; j < nit[0].neighbors.size(); ++j)
        EXPECT_LE(v.dist2(0, nit[0].neighbors[j - 1]),
                  v.dist2(0, nit[0].neighbors[j]));
}

TEST(BruteForce, BallRespectsRadiusAndPads)
{
    Rng rng(3);
    auto data = randomRows(rng, 100, 3);
    PointsView v(data.data(), 100, 3);
    float r = 0.4f;
    auto nit = makeBackendByName("brute_force", v)->ballTable({5}, r, 16);
    ASSERT_EQ(nit.size(), 1);
    EXPECT_EQ(static_cast<int32_t>(nit[0].neighbors.size()), 16);
    std::set<int32_t> uniq;
    for (int32_t n : nit[0].neighbors) {
        EXPECT_LE(v.dist2(5, n), r * r + 1e-6f);
        uniq.insert(n);
    }
    // Padding repeats the first in-ball point.
    EXPECT_LE(uniq.size(), nit[0].neighbors.size());
}

TEST(BruteForce, BallNoPadWhenDisabled)
{
    std::vector<float> data{0, 0, 0, 10, 0, 0};
    PointsView v(data.data(), 2, 3);
    // A bare radius query is never padded; only the table fill pads.
    auto ball = makeBackendByName("brute_force", v)->radius(v.row(0), 1.0f,
                                                            8);
    EXPECT_EQ(ball, std::vector<int32_t>{0});
}

// --- KD-tree vs brute force property sweep ---------------------------

struct SweepParam
{
    int32_t n;
    int32_t dim;
    int32_t k;
};

class KdTreeSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(KdTreeSweep, KnnMatchesBruteForce)
{
    auto [n, dim, k] = GetParam();
    Rng rng(1000 + n + dim + k);
    auto data = randomRows(rng, n, dim);
    PointsView v(data.data(), n, dim);
    auto tree = makeBackendByName("kdtree", v);

    std::vector<int32_t> queries;
    for (int32_t q = 0; q < n; q += std::max(1, n / 17))
        queries.push_back(q);

    auto ref = makeBackendByName("brute_force", v)->knnTable(queries, k);
    auto got = tree->knnTable(queries, k);
    ASSERT_EQ(ref.size(), got.size());
    for (int32_t i = 0; i < ref.size(); ++i) {
        // Distances must match exactly (sets may differ under ties, so
        // compare distances, which is the semantic contract).
        ASSERT_EQ(ref[i].neighbors.size(), got[i].neighbors.size());
        for (size_t j = 0; j < ref[i].neighbors.size(); ++j)
            EXPECT_FLOAT_EQ(v.dist2(queries[i], ref[i].neighbors[j]),
                            v.dist2(queries[i], got[i].neighbors[j]))
                << "n=" << n << " dim=" << dim << " k=" << k;
    }
}

TEST_P(KdTreeSweep, RadiusMatchesBruteForce)
{
    auto [n, dim, k] = GetParam();
    Rng rng(2000 + n + dim + k);
    auto data = randomRows(rng, n, dim);
    PointsView v(data.data(), n, dim);
    KdTree tree(v, 8);
    float radius = 0.5f;

    for (int32_t q = 0; q < n; q += std::max(1, n / 7)) {
        auto got = tree.radius(v.row(q), radius);
        std::set<int32_t> expected;
        for (int32_t i = 0; i < n; ++i)
            if (v.dist2(q, i) <= radius * radius)
                expected.insert(i);
        EXPECT_EQ(std::set<int32_t>(got.begin(), got.end()), expected);
        // Nearest-first ordering.
        for (size_t j = 1; j < got.size(); ++j)
            EXPECT_LE(v.dist2(q, got[j - 1]), v.dist2(q, got[j]));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreeSweep,
    ::testing::Values(SweepParam{32, 3, 4}, SweepParam{100, 3, 8},
                      SweepParam{257, 3, 16}, SweepParam{128, 2, 8},
                      SweepParam{128, 8, 8}, SweepParam{200, 16, 10},
                      SweepParam{64, 64, 12}, SweepParam{500, 3, 32},
                      SweepParam{41, 5, 41}));

TEST(KdTree, BallTablePadsLikeBruteForce)
{
    Rng rng(7);
    auto data = randomRows(rng, 120, 3);
    PointsView v(data.data(), 120, 3);
    auto tree = makeBackendByName("kdtree", v);
    auto a = tree->ballTable({3, 60}, 0.3f, 12);
    auto b = makeBackendByName("brute_force", v)->ballTable({3, 60}, 0.3f,
                                                            12);
    ASSERT_EQ(a.size(), b.size());
    for (int32_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].neighbors.size(), b[i].neighbors.size());
}

TEST(KdTree, RejectsBadQueries)
{
    Rng rng(8);
    auto data = randomRows(rng, 10, 3);
    PointsView v(data.data(), 10, 3);
    KdTree tree(v);
    EXPECT_THROW(tree.knn(v.row(0), 11), mesorasi::UsageError);
    auto backend = makeBackendByName("kdtree", v);
    EXPECT_THROW(backend->knnTable({10}, 2), mesorasi::UsageError);
}

TEST(Grid, RadiusMatchesBruteForce)
{
    Rng rng(9);
    geom::ShapeParams p{300, 0.0f, -1};
    geom::PointCloud cloud = geom::makeSphere(rng, p, {}, 1.0f);
    FlatPoints flat(cloud);
    PointsView v = flat.view();
    float radius = 0.3f;
    SearchHints hints;
    hints.radius = radius;
    auto grid = makeBackendByName("grid", v, hints);
    auto bf = makeBackendByName("brute_force", v);
    for (int32_t q = 0; q < 300; q += 37) {
        auto got = grid->radius(v.row(q), radius);
        std::set<int32_t> expected;
        for (int32_t i = 0; i < 300; ++i)
            if (v.dist2(q, i) <= radius * radius)
                expected.insert(i);
        EXPECT_EQ(std::set<int32_t>(got.begin(), got.end()), expected);
        // Same members in the same (distance, index) order.
        EXPECT_EQ(got, bf->radius(v.row(q), radius));
    }
}

TEST(Grid, BallTableMatchesKdTree)
{
    Rng rng(10);
    geom::ShapeParams p{200, 0.0f, -1};
    geom::PointCloud cloud = geom::makeTorus(rng, p, {}, 0.7f, 0.2f);
    FlatPoints flat(cloud);
    SearchHints hints;
    hints.radius = 0.25f;
    auto grid = makeBackendByName("grid", flat.view(), hints);
    auto tree = makeBackendByName("kdtree", flat.view());

    std::vector<int32_t> queries{0, 50, 100, 150, 199};
    auto a = grid->ballTable(queries, 0.25f, 8);
    auto b = tree->ballTable(queries, 0.25f, 8);
    ASSERT_EQ(a.size(), b.size());
    for (int32_t i = 0; i < a.size(); ++i) {
        // Same group sizes and same nearest member.
        EXPECT_EQ(a[i].neighbors.size(), b[i].neighbors.size());
        EXPECT_EQ(a[i].neighbors[0], b[i].neighbors[0]);
    }
}

TEST(Grid, CellCountReasonable)
{
    Rng rng(11);
    geom::ShapeParams p{500, 0.0f, -1};
    geom::PointCloud cloud = geom::makeBox(rng, p);
    FlatPoints flat(cloud);
    SearchHints hints;
    hints.radius = 0.2f;
    GridIndex grid(flat.view(), hints);
    EXPECT_FLOAT_EQ(grid.cellSize(), 0.2f);
    EXPECT_GT(grid.numCells(), 10u);
    EXPECT_LE(grid.numCells(), 500u);
}

} // namespace
} // namespace mesorasi::neighbor
