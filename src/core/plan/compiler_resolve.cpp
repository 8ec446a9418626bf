/**
 * @file
 * Compile-time backend resolution.
 *
 * The per-run path asks chooseBackend per request; the compiler asks
 * the hwsim analytic model once, at compile time. Candidate-visit
 * counts per backend are simple closed forms (exhaustive scan, tree
 * descent with a dimensionality-degraded pruning factor, grid shells)
 * costed with GpuConfig's calibrated per-candidate search costs; index
 * builds are charged per execution because they are data-dependent.
 */
#include "core/plan/plan_compiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "hwsim/config.hpp"

namespace mesorasi::core::plan {

namespace {

double
backendCostMs(neighbor::Backend b, const ModuleIo &io, bool knnQuery)
{
    const hwsim::GpuConfig gpu; // calibrated defaults (hwsim/config.hpp)
    double q = std::max(1, io.nOut);
    double n = std::max(1, io.nIn);
    double k = std::max(1, io.k);
    double dim = std::max(1, io.searchDim);
    double perElemNs =
        knnQuery ? gpu.searchKnnNsPerElem : gpu.searchBallNsPerElem;
    // Distance evaluation scales with dimensionality; the calibrated
    // constants describe 3-D workloads.
    double dimScale = dim / 3.0;
    double log2n = std::log2(n + 1.0);

    double visited = 0.0; // candidates examined per query
    double buildNs = 0.0; // per-execution index construction
    switch (b) {
      case neighbor::Backend::BruteForce:
        visited = n;
        break;
      case neighbor::Backend::KdTree: {
        // Tree pruning collapses exponentially with dimensionality
        // (the curse the per-run heuristic encodes as dim > 8).
        double prune =
            std::min(n, 4.0 * k * log2n *
                            std::pow(2.0, std::min(8.0, dim - 3.0)));
        visited = prune;
        buildNs = 2.0 * n * log2n * gpu.searchBallNsPerElem;
        break;
      }
      case neighbor::Backend::Grid:
        if (io.searchDim != 3)
            return std::numeric_limits<double>::infinity();
        // Cell ~= radius (ball) or ~ k points (knn): a shell scan
        // touches a small constant multiple of the group size.
        visited = std::min(n, (knnQuery ? 16.0 : 8.0) * k);
        buildNs = 2.0 * n * gpu.searchBallNsPerElem;
        break;
      case neighbor::Backend::Auto:
        MESO_CHECK(false, "cannot cost Backend::Auto");
    }
    return (q * visited * dimScale * perElemNs + buildNs) * 1e-6;
}

} // namespace

double
PlanCompiler::plannedSearchCostMs(neighbor::Backend backend,
                                  const ModuleIo &io, bool knnQuery)
{
    return backendCostMs(backend, io, knnQuery);
}

neighbor::Backend
PlanCompiler::resolveAutoBackend(const ModuleIo &io, bool knnQuery)
{
    neighbor::Backend best = neighbor::Backend::BruteForce;
    double bestMs = backendCostMs(best, io, knnQuery);
    for (neighbor::Backend b :
         {neighbor::Backend::Grid, neighbor::Backend::KdTree}) {
        double ms = backendCostMs(b, io, knnQuery);
        if (ms < bestMs) {
            bestMs = ms;
            best = b;
        }
    }
    return best;
}

} // namespace mesorasi::core::plan
