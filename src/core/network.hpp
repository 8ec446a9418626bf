/**
 * @file
 * Whole-network configuration and execution.
 *
 * A point-cloud network (paper Fig. 1) is a sequence of N-A-F modules
 * plus common primitives: DGCNN-style skip concatenation, a global MLP,
 * feature-propagation (interpolation) decoders for segmentation, and a
 * fully-connected head. NetworkExecutor runs a configured network under
 * any pipeline (original / delayed / ltd-delayed) with shared weights,
 * producing logits, per-module NITs (for the AU simulator), shape
 * summaries, and the operator trace.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "geom/point_cloud.hpp"

namespace mesorasi::core {

/** Application domain of a network (paper Table I). */
enum class Task
{
    Classification,
    Segmentation,
    Detection,
};

/** Full network description. */
struct NetworkConfig
{
    std::string name;
    Task task = Task::Classification;
    int32_t numInputPoints = 1024;
    int32_t numClasses = 40;

    std::vector<ModuleConfig> modules;

    /**
     * Network-wide search-backend default: applied to every module
     * (encoder, stage-2, interpolation) whose own backend is still
     * Auto. Auto keeps per-module automatic selection.
     */
    neighbor::Backend backend = neighbor::Backend::Auto;

    /**
     * LDGCNN/DensePoint-style linked inputs: each module's input is the
     * concatenation of the original features and every previous module
     * output at the same resolution (the link chain resets when a module
     * downsamples).
     */
    bool linkedInputs = false;

    /**
     * DGCNN-style head: concatenate every module's output (all modules
     * must preserve the point count), apply the global MLP per point,
     * then max-pool over points.
     */
    bool concatModuleOutputs = false;
    std::vector<int32_t> globalMlpWidths;

    /** Segmentation decoder: interpolation modules applied in reverse
     *  pairing with the encoder modules. */
    std::vector<InterpModuleConfig> interpModules;

    /** FC head hidden widths (the final numClasses layer is implicit). */
    std::vector<int32_t> headWidths;

    /**
     * Detection second stage (F-PointNet): modules run on the
     * segmentation-masked cloud (T-Net and box-estimation nets), then a
     * regression head of stage2Outputs values.
     */
    std::vector<ModuleConfig> stage2Modules;
    std::vector<int32_t> stage2HeadWidths;
    int32_t stage2Outputs = 0;

    void validate() const;
};

/** Everything one inference produces. */
struct RunResult
{
    tensor::Tensor logits; ///< 1 x C, N x C (seg), or 1 x stage2Outputs
    NetworkTrace trace;
    std::vector<neighbor::NeighborIndexTable> nits; ///< per N-A-F module
    std::vector<ModuleIo> ios;                      ///< per N-A-F module
};

/**
 * Builds shared weights once and executes under any pipeline.
 *
 * run() is the reference interpreter: a plain loop over the encoder
 * modules, then the head (for detection, the stage-2 branches and the
 * box head after the segmentation head). The compiled engine
 * (core/plan) is checked against it bit for bit.
 */
class NetworkExecutor
{
  public:
    NetworkExecutor(NetworkConfig cfg, uint64_t weightSeed,
                    nn::Activation act = nn::Activation::Relu);

    /**
     * Run one cloud through the network. @p runSeed drives centroid
     * sampling — keep it fixed to compare pipelines on equal footing.
     * The cloud passes the same front door as CompiledEngine::validate
     * (geom::validateInputCloud): a malformed cloud throws UsageError
     * with InvalidInput, a wrong point count with ShapeMismatch.
     */
    RunResult run(const geom::PointCloud &cloud, PipelineKind kind,
                  uint64_t runSeed = 1) const;

    /** Operator trace for an arbitrary input size, without executing.
     *  Used for the 130k-point workload characterizations (Fig. 7). */
    NetworkTrace analyticTrace(PipelineKind kind,
                               int32_t numInputPoints) const;

    /** Shape summaries for an arbitrary input size. */
    std::vector<ModuleIo> analyticIos(int32_t numInputPoints) const;

    const NetworkConfig &config() const { return cfg_; }
    const ModuleExecutor &module(size_t i) const { return *modules_[i]; }
    size_t numModules() const { return modules_.size(); }

    // --- Compiled-plan introspection ----------------------------------
    // core::plan::PlanCompiler walks the executor once at compile time;
    // these expose the weight holders and dim bookkeeping it needs.
    /** Effective feature dim entering module @p i (after links). */
    int32_t moduleInDim(size_t i) const { return moduleInDims_[i]; }
    const nn::Mlp &head() const { return *head_; }
    /** Global MLP of the concat head (null otherwise). */
    const nn::Mlp *globalMlp() const { return globalMlp_.get(); }
    const InterpExecutor &interp(size_t i) const { return *interps_[i]; }
    size_t numInterps() const { return interps_.size(); }
    const ModuleExecutor &stage2Module(size_t i) const
    { return *stage2Modules_[i]; }
    size_t numStage2Modules() const { return stage2Modules_.size(); }
    /** Detection regression head (null outside detection). */
    const nn::Mlp *stage2Head() const { return stage2Head_.get(); }
    int32_t headInDim() const { return headInDim_; }
    int32_t concatDim() const { return concatDim_; }

  private:
    struct DimFlow; // tracks feature dims through links/concats

    NetworkConfig cfg_;
    nn::Activation act_;
    std::vector<std::unique_ptr<ModuleExecutor>> modules_;
    std::vector<std::unique_ptr<InterpExecutor>> interps_;
    std::unique_ptr<nn::Mlp> globalMlp_;
    std::unique_ptr<nn::Mlp> head_;
    std::vector<std::unique_ptr<ModuleExecutor>> stage2Modules_;
    std::unique_ptr<nn::Mlp> stage2Head_;

    // Dim bookkeeping filled in by the constructor.
    std::vector<int32_t> moduleInDims_;
    std::vector<int32_t> stage2InDims_;
    int32_t headInDim_ = 0;
    int32_t concatDim_ = 0;
};

} // namespace mesorasi::core
