/**
 * @file
 * The plan optimizer: an ordered pass pipeline over the step IR.
 *
 * PlanCompiler::compile emits a PlanIR (step_ir.hpp), hands it to a
 * PassManager, then bakes the surviving steps and re-runs the
 * ArenaPlanner. Passes rewrite the IR in place and must keep each
 * step's declared read/write sets in sync with what its baked closure
 * will touch — liveness analysis and arena planning trust them.
 *
 * Numerics contract: a pass whose rewrites can change the bitwise value
 * of any observable output must return true from changesNumerics().
 * Such passes are skipped (recorded with ran=false) unless the caller
 * opts in via PassOptions::allowNumericsChanging or the environment
 * variable MESORASI_PLAN_NUMERICS_PASSES=1. The default pipeline is
 * entirely numerics-preserving: optimized logits are bitwise equal to
 * the unoptimized plan and to the per-run NetworkExecutor::run.
 *
 * Kill switch: MESORASI_PLAN_PASSES=0 (or PassOptions::Enable::Off)
 * disables the whole pipeline; the plan then executes exactly the
 * steps the compiler emitted.
 */
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/plan/step_ir.hpp"

namespace mesorasi::hwsim {
struct GpuConfig;
}

namespace mesorasi::core::plan {

/** PFT storage layout choice (the layout-selection pass). */
enum class PftLayout
{
    Auto,          ///< cost-model decision per buffer
    RowMajor,      ///< packed rows (ld == cols); never convert
    AlignedBlocked ///< rows padded to 64-byte lines (ld rounded to 16)
};

/**
 * Per-buffer calibration ranges for the quantize_pft pass: the max |x|
 * observed in each gathered PFT buffer over representative clouds,
 * keyed by PlanIR buffer id (quant::calibratePft produces one against
 * the fp32 engine — buffer ids are stable across recompiles of the
 * same executor/options because passes append buffers, never renumber
 * them). Empty -> the pass no-ops even when numerics-changing passes
 * are allowed.
 */
struct PftCalibration
{
    std::map<int32_t, float> maxAbs;

    bool empty() const { return maxAbs.empty(); }
};

/** Knobs of one PassManager::run invocation. */
struct PassOptions
{
    enum class Enable
    {
        Auto, ///< on unless MESORASI_PLAN_PASSES=0
        On,
        Off
    };
    Enable enable = Enable::Auto;
    /** Opt-in for passes with changesNumerics() == true (also granted
     *  by MESORASI_PLAN_NUMERICS_PASSES=1). */
    bool allowNumericsChanging = false;
    /** Override the layout pass's cost-model decision (tests). */
    PftLayout forceLayout = PftLayout::Auto;
    /** Calibration ranges arming the quantize_pft pass. */
    PftCalibration quantCalibration;
    /** Calibrated PFT buffers with at least this many rows store
     *  packed int4 instead of int8 (default: int8 only — int4 is the
     *  opt-in second level for the largest tables). */
    int64_t quantInt4MinRows = std::numeric_limits<int64_t>::max();
};

/** Per-pass statistics recorded by the optimizer pipeline. */
struct PassStat
{
    std::string pass;
    /** False when the pass was skipped (e.g. a numerics-changing pass
     *  without the explicit opt-in). */
    bool ran = false;
    int32_t stepsRemoved = 0;
    int32_t fusionsApplied = 0;
    int32_t layoutsChanged = 0;
    int32_t buffersQuantized = 0;
};

/** Whether the pipeline runs under @p opts (env kill switch applied). */
bool passesEnabled(const PassOptions &opts);

/** Whether numerics-changing passes may run under @p opts. */
bool numericsChangingAllowed(const PassOptions &opts);

/** One IR rewrite. Implementations live in core/plan/passes/. */
class Pass
{
  public:
    virtual ~Pass() = default;

    virtual const char *name() const = 0;

    /** Must return true when the rewrite can change observable bits.
     *  Such passes default off — see the file comment. */
    virtual bool changesNumerics() const { return false; }

    /** Rewrite @p ir in place, recording what changed in @p stat
     *  (stat.pass and stat.ran are managed by the PassManager). */
    virtual void run(PlanIR &ir, const PassOptions &opts,
                     PassStat &stat) = 0;
};

// --- The shipped passes ------------------------------------------------

/** Backward liveness from root steps; removes steps none of whose
 *  written resources are ever consumed (detection plans drop the whole
 *  unread encoder tail). */
std::unique_ptr<Pass> makeDeadStepElimination();

/** Folds adjacent epilogue steps (bias/ReLU, centroid subtract/add)
 *  into their producer matmul/gather step, baking the existing fused
 *  kernels. Per-element accumulation order is preserved, so results
 *  stay bitwise identical. */
std::unique_ptr<Pass> makeEpilogueFusion();

/** Chooses row-major vs cache-line-aligned PFT layouts from the hwsim
 *  gather profile. The IR is descriptor-complete and every baked
 *  kernel is stride-aware, so the rewrite is always an in-place change
 *  to the buffer's leading dimension. Padding is never read, so the
 *  pass is numerics-preserving. */
std::unique_ptr<Pass> makePftLayoutSelection();

/** Rewrites each calibrated AggGatherMax input PFT to int8 (or packed
 *  int4) storage: a QuantizeRows step is inserted after the buffer's
 *  producer and every gather/epilogue consumer is repointed at the
 *  quantized copy (the f32 original dies immediately, shrinking the
 *  re-planned arena). Max commutes with the monotone symmetric
 *  quantizer, so the gather-max runs entirely in the integer domain
 *  and dequantizes once per output element. changesNumerics() == true:
 *  gated behind PassOptions::allowNumericsChanging /
 *  MESORASI_PLAN_NUMERICS_PASSES=1, and armed only by a non-empty
 *  PassOptions::quantCalibration. */
std::unique_ptr<Pass> makePftQuantization();

/** Symmetric quantization scale for a buffer with observed range
 *  max |x| (clamp limit 127 for int8, 7 for int4). A constant-zero
 *  buffer has no range; any positive scale encodes it exactly, so it
 *  gets scale 1 (never 0 or NaN). Throws UsageError on a non-finite
 *  range. */
float quantScaleFor(float maxAbs, DType dtype);

// --- Layout cost model (exposed for tests/benchmarks) ------------------

/** Gather traffic profile of one PFT buffer. */
struct GatherProfile
{
    int64_t gatheredRows = 0; ///< rows fetched by gather consumers
    int64_t producedRows = 0; ///< rows written by the producer
    int32_t cols = 0;
};

/** The layout pass's decision function: aligned blocking pays when the
 *  DRAM lines saved across gathered rows outweigh the padding bytes
 *  streamed when producing them (hwsim gather/stream efficiencies). */
PftLayout chooseAlignedLayout(const GatherProfile &profile,
                              const hwsim::GpuConfig &gpu);

// --- The manager -------------------------------------------------------

class PassManager
{
  public:
    /** Append @p pass to the pipeline (runs in registration order). */
    void add(std::unique_ptr<Pass> pass);

    /** The shipped pipeline: DCE, epilogue fusion, PFT layout, PFT
     *  quantization (the last is numerics-changing and so skipped
     *  without the explicit opt-in). */
    static PassManager defaultPipeline();

    /**
     * Run the pipeline over @p ir. Returns one PassStat per registered
     * pass, in order; skipped passes (pipeline disabled, or a
     * numerics-changing pass without the opt-in) appear with
     * ran=false.
     */
    std::vector<PassStat> run(PlanIR &ir, const PassOptions &opts) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

} // namespace mesorasi::core::plan
