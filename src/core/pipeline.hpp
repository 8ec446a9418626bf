/**
 * @file
 * Module execution pipelines.
 *
 * Three ways to execute one N-A-F module (paper Secs. III-IV):
 *
 *  - Original: aggregate first, then feature-compute on the K x Min
 *    Neighbor Feature Matrices (Fig. 3).
 *  - Delayed (the paper's contribution): feature-compute on the raw
 *    input points to build the Point Feature Table, run neighbor search
 *    in parallel, then aggregate in the *output* feature space (Fig. 8).
 *    When the reduction is max, aggregation is further delayed past the
 *    reduction (max(p1-c, p2-c) == max(p1,p2)-c), which is exact.
 *  - LtdDelayed: the GNN-style limited hoisting — only the first matrix
 *    product (which is linear, hence exactly distributive) is moved
 *    before aggregation; bias, activation, and the remaining layers run
 *    after aggregation (Sec. VII-C's Ltd-Mesorasi baseline).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/module.hpp"
#include "core/trace.hpp"
#include "neighbor/nit.hpp"
#include "nn/mlp.hpp"
#include "tensor/tensor.hpp"

namespace mesorasi::core {

/** Which execution strategy to use. */
enum class PipelineKind
{
    Original,
    Delayed,
    LtdDelayed,
};

/** Human-readable pipeline name. */
const char *pipelineName(PipelineKind kind);

/** A point set flowing between modules: coordinates plus features. */
struct ModuleState
{
    tensor::Tensor coords;   ///< N x 3
    tensor::Tensor features; ///< N x M (equal to coords at the input)

    int32_t numPoints() const { return coords.rows(); }
    int32_t featureDim() const { return features.cols(); }
};

/** Shape summary of one executed module, consumed by the HW simulator. */
struct ModuleIo
{
    std::string name;
    int32_t nIn = 0;   ///< input point count
    int32_t mIn = 0;   ///< input feature dim
    int32_t nOut = 0;  ///< centroid count
    int32_t mOut = 0;  ///< output feature dim
    int32_t k = 0;     ///< group size
    int32_t searchDim = 0; ///< dimensionality the search ran in
    std::vector<int32_t> mlpWidths; ///< per-layer output widths
    int32_t mlpInDim = 0;           ///< MLP input width (orig pipeline)
};

/** Result of executing one module. */
struct ModuleResult
{
    ModuleState out;
    neighbor::NeighborIndexTable nit;
    std::vector<int32_t> centroidIdx;
    ModuleTrace trace;
    ModuleIo io;
};

/**
 * Executes one configured module with shared weights under any of the
 * three pipelines, and emits the corresponding operator trace.
 *
 * This is the reference interpreter the compiled engine is checked
 * against bit for bit: plain sequential code, sample → search →
 * feature → aggregate → epilogue, with the inner loops on the global
 * pool.
 */
class ModuleExecutor
{
  public:
    /**
     * @param cfg        validated module configuration
     * @param inFeatureDim feature dim of the incoming state
     * @param weightRng  source of the (shared) MLP weights
     * @param act        activation for the module MLP
     */
    ModuleExecutor(ModuleConfig cfg, int32_t inFeatureDim, Rng &weightRng,
                   nn::Activation act = nn::Activation::Relu);

    /** Execute under the given pipeline. @p samplerRng drives centroid
     *  sampling and must be identically seeded across pipelines when
     *  outputs are to be compared; only random-subset sampling draws
     *  from it. */
    ModuleResult run(const ModuleState &in, PipelineKind kind,
                     Rng &samplerRng) const;

    /** Emit the operator trace for arbitrary input sizes without
     *  executing (used for the 130k-point workload characterization).
     *  @p nOutOverride replaces the configured centroid count when
     *  positive (input-size scaling). */
    ModuleTrace analyticTrace(PipelineKind kind, int32_t nIn, int32_t mIn,
                              int32_t nOutOverride = -1) const;

    /** Shape summary for arbitrary input sizes. */
    ModuleIo analyticIo(int32_t nIn, int32_t mIn,
                        int32_t nOutOverride = -1) const;

    const ModuleConfig &config() const { return cfg_; }
    const nn::Mlp &mlp() const { return mlp_; }
    nn::Mlp &mutableMlp() { return mlp_; }
    int32_t inFeatureDim() const { return inFeatureDim_; }
    int32_t outFeatureDim() const { return cfg_.outDim(); }

  private:
    /** Centroid list: iota, FPS, or a sorted random subset drawn from
     *  @p samplerRng (the only draw a module execution makes). */
    std::vector<int32_t> sample(const ModuleState &in,
                                Rng &samplerRng) const;

    neighbor::NeighborIndexTable
    search(const ModuleState &in,
           const std::vector<int32_t> &centroids) const;

    // Per-pipeline feature + aggregation of a non-Global module; each
    // returns the module's output features (nOut x outDim).
    using Nit = neighbor::NeighborIndexTable;
    tensor::Tensor runOriginal(const ModuleState &in, const Nit &nit) const;
    tensor::Tensor runDelayed(const ModuleState &in, const Nit &nit) const;
    tensor::Tensor runLtd(const ModuleState &in, const Nit &nit) const;

    ModuleConfig cfg_;
    int32_t inFeatureDim_;
    nn::Mlp mlp_;
};

/**
 * Feature-propagation (interpolation) executor for segmentation
 * networks: inverse-distance 3-NN interpolation of coarse features onto
 * fine points, concatenated with the fine level's skip features, then a
 * per-point MLP. Identical under all pipelines (nothing to delay).
 */
class InterpExecutor
{
  public:
    InterpExecutor(InterpModuleConfig cfg, int32_t coarseDim,
                   int32_t skipDim, Rng &weightRng,
                   nn::Activation act = nn::Activation::Relu);

    /** @param fine   the dense level (provides coords and skip features)
     *  @param coarse the sparse level whose features are propagated */
    ModuleResult run(const ModuleState &fine,
                     const ModuleState &coarse) const;

    int32_t outFeatureDim() const { return cfg_.outDim(); }
    const InterpModuleConfig &config() const { return cfg_; }
    const nn::Mlp &mlp() const { return mlp_; }

  private:
    InterpModuleConfig cfg_;
    int32_t coarseDim_;
    int32_t skipDim_;
    nn::Mlp mlp_;
};

} // namespace mesorasi::core
