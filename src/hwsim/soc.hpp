/**
 * @file
 * Whole-SoC scheduler (paper Fig. 13).
 *
 * The SoC comprises a GPU, an NPU (with the Aggregation Unit extension),
 * DRAM, and optionally a neighbor-search engine (NSE). A Mapping assigns
 * each operator phase to a unit; the scheduler walks a NetworkTrace,
 * costs every operator on its unit, and combines per-module phase times:
 * serialized for the original pipeline, with neighbor search overlapped
 * against feature computation for delayed-aggregation (overlap only
 * materializes when the two phases run on *different* units — the paper
 * observes TX2's GPU cannot co-run both kernels, Sec. VII-C).
 */
#pragma once

#include <string>
#include <vector>

#include "core/network.hpp"
#include "hwsim/agg_unit.hpp"
#include "hwsim/config.hpp"
#include "hwsim/gpu_model.hpp"
#include "hwsim/npu.hpp"

namespace mesorasi::hwsim {

/** Execution unit an operator phase is mapped to. */
enum class Unit
{
    Gpu,
    Npu,
    Au,
    Nse,
};

/** Phase-to-unit assignment. */
struct Mapping
{
    std::string name;
    Unit search = Unit::Gpu;
    Unit feature = Unit::Gpu;
    Unit aggregation = Unit::Gpu;
    /** Allow N || F overlap (delayed-aggregation traces only). */
    bool overlapSearchFeature = false;

    /** GPU-only software (the Fig. 4/5/17 platform). */
    static Mapping gpuOnly(bool overlap = false);
    /** GPU+NPU SoC running the original algorithm (the baseline). */
    static Mapping baselineGpuNpu();
    /** Delayed-aggregation, no AU: aggregation stays on the GPU. */
    static Mapping mesorasiSw();
    /** Delayed-aggregation with the AU extension. */
    static Mapping mesorasiHw();
    /** Replace the GPU's neighbor search with the NSE (Sec. VII-E). */
    Mapping withNse() const;
};

/** Per-phase time split (the paper's N / A / F / others). */
struct PhaseTimes
{
    double searchMs = 0.0;
    double featureMs = 0.0;
    double aggregationMs = 0.0;
    double otherMs = 0.0;

    double
    serialTotal() const
    {
        return searchMs + featureMs + aggregationMs + otherMs;
    }
};

/** Simulation output for one network inference on one mapping. */
struct SocReport
{
    std::string network;
    std::string mapping;

    PhaseTimes phases;   ///< per-phase busy time (no overlap applied)
    double totalMs = 0.0;///< end-to-end latency with overlap/pipelining

    double gpuEnergyMj = 0.0;
    double npuEnergyMj = 0.0;
    double auEnergyMj = 0.0;
    double nseEnergyMj = 0.0;
    double dramEnergyMj = 0.0;
    double staticEnergyMj = 0.0; ///< staticPowerW x totalMs

    int64_t dramBytes = 0;
    AuStats auStats; ///< aggregate across modules (AU mappings only)

    double
    totalEnergyMj() const
    {
        return gpuEnergyMj + npuEnergyMj + auEnergyMj + nseEnergyMj +
               dramEnergyMj + staticEnergyMj;
    }
};

/** The SoC simulator. */
class Soc
{
  public:
    explicit Soc(SocConfig cfg);

    /**
     * Simulate one network run.
     *
     * @param trace the operator trace (original or delayed pipeline)
     * @param nits  per-module NITs (indexed by ModuleTrace::aggTableIndex)
     * @param ios   per-module shape summaries, aligned with @p nits
     */
    SocReport simulate(const core::NetworkTrace &trace,
                       const std::vector<neighbor::NeighborIndexTable> &nits,
                       const std::vector<core::ModuleIo> &ios,
                       const Mapping &mapping) const;

    /** Convenience: simulate a RunResult. */
    SocReport simulate(const core::RunResult &run,
                       const Mapping &mapping) const;

    const SocConfig &config() const { return cfg_; }

  private:
    struct OpCost
    {
        double timeMs = 0.0;
        int64_t dramBytes = 0;
    };

    OpCost costOn(Unit unit, const core::OpTrace &op,
                  SocReport &report) const;

    SocConfig cfg_;
    GpuModel gpu_;
    NpuModel npu_;
    AggregationUnit au_;
};

} // namespace mesorasi::hwsim
