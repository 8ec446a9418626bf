#include "hwsim/soc.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mesorasi::hwsim {

Mapping
Mapping::gpuOnly(bool overlap)
{
    Mapping m;
    m.name = overlap ? "gpu-delayed" : "gpu";
    m.search = Unit::Gpu;
    m.feature = Unit::Gpu;
    m.aggregation = Unit::Gpu;
    m.overlapSearchFeature = overlap;
    return m;
}

Mapping
Mapping::baselineGpuNpu()
{
    Mapping m;
    m.name = "baseline-gpu+npu";
    m.search = Unit::Gpu;
    m.feature = Unit::Npu;
    m.aggregation = Unit::Gpu;
    m.overlapSearchFeature = false;
    return m;
}

Mapping
Mapping::mesorasiSw()
{
    Mapping m;
    m.name = "mesorasi-sw";
    m.search = Unit::Gpu;
    m.feature = Unit::Npu;
    m.aggregation = Unit::Gpu;
    m.overlapSearchFeature = true;
    return m;
}

Mapping
Mapping::mesorasiHw()
{
    Mapping m;
    m.name = "mesorasi-hw";
    m.search = Unit::Gpu;
    m.feature = Unit::Npu;
    m.aggregation = Unit::Au;
    m.overlapSearchFeature = true;
    return m;
}

Mapping
Mapping::withNse() const
{
    Mapping m = *this;
    m.name += "+nse";
    m.search = Unit::Nse;
    return m;
}

Soc::Soc(SocConfig cfg)
    : cfg_(cfg),
      gpu_(cfg.gpu, cfg.dram),
      npu_(cfg.npu, cfg.dram, cfg.energy),
      au_(cfg.au, cfg.npu, cfg.energy)
{
}

Soc::OpCost
Soc::costOn(Unit unit, const core::OpTrace &op, SocReport &report) const
{
    OpCost c;
    switch (unit) {
      case Unit::Gpu: {
        GpuCost g = gpu_.cost(op);
        report.gpuEnergyMj += g.energyMj;
        c.timeMs = g.timeMs;
        c.dramBytes = g.dramBytes;
        break;
      }
      case Unit::Npu: {
        NpuCost n = npu_.cost(op);
        report.npuEnergyMj += n.energyMj;
        c.timeMs = n.timeMs;
        c.dramBytes = n.dramBytes;
        break;
      }
      case Unit::Nse: {
        // The NSE accelerates neighbor search by a fixed factor over
        // the GPU (Sec. VII-E: ~60x, from the Tigris design).
        GpuCost g = gpu_.cost(op);
        c.timeMs = g.timeMs / cfg_.nse.speedupOverGpu;
        c.dramBytes = g.dramBytes;
        report.nseEnergyMj += c.timeMs * cfg_.nse.powerW;
        break;
      }
      case Unit::Au:
        MESO_CHECK(false, "AU ops are costed via the AU simulator");
    }
    return c;
}

SocReport
Soc::simulate(const core::NetworkTrace &trace,
              const std::vector<neighbor::NeighborIndexTable> &nits,
              const std::vector<core::ModuleIo> &ios,
              const Mapping &mapping) const
{
    MESO_REQUIRE(nits.size() == ios.size(),
                 "NIT/IO lists must be aligned");
    SocReport report;
    report.network = trace.network;
    report.mapping = mapping.name;

    for (const auto &module : trace.modules) {
        double search_ms = 0.0;
        double feature_ms = 0.0;
        double agg_ms = 0.0;
        double other_ms = 0.0;

        bool has_agg_op = false;
        for (const auto &op : module.ops)
            has_agg_op |= op.phase == core::Phase::Aggregation;
        bool au_handles_agg = mapping.aggregation == Unit::Au &&
                              module.aggTableIndex >= 0 && has_agg_op;

        for (const auto &op : module.ops) {
            switch (op.phase) {
              case core::Phase::Search: {
                OpCost c = costOn(mapping.search, op, report);
                search_ms += c.timeMs;
                report.dramBytes += c.dramBytes;
                break;
              }
              case core::Phase::Feature: {
                // Reduce ops belong to F; on AU mappings the reduction
                // of *aggregation* is folded into the AU itself (the
                // delayed trace has no separate Reduce in modules with
                // a NIT), so this is the original-pipeline reduce or a
                // head pool.
                Unit u = mapping.feature;
                OpCost c = costOn(u, op, report);
                feature_ms += c.timeMs;
                report.dramBytes += c.dramBytes;
                break;
              }
              case core::Phase::Aggregation: {
                if (au_handles_agg) {
                    // Costed once per module below via the AU simulator.
                    break;
                }
                OpCost c = costOn(mapping.aggregation == Unit::Au
                                      ? Unit::Gpu
                                      : mapping.aggregation,
                                  op, report);
                agg_ms += c.timeMs;
                report.dramBytes += c.dramBytes;
                break;
              }
              case core::Phase::Other: {
                // Heads (Fc) follow the feature unit; glue ops (sampling,
                // concat, interpolation) run on the GPU.
                Unit u = op.kind == core::OpKind::Fc ? mapping.feature
                                                     : Unit::Gpu;
                OpCost c = costOn(u, op, report);
                other_ms += c.timeMs;
                report.dramBytes += c.dramBytes;
                break;
              }
            }
        }

        if (au_handles_agg) {
            const auto &nit = nits[module.aggTableIndex];
            const auto &io = ios[module.aggTableIndex];
            if (nit.size() > 0) {
                AuStats s = au_.aggregate(nit, io.nIn, io.mOut);
                agg_ms += s.timeMs;
                report.auEnergyMj += s.energyMj;
                report.dramBytes += s.nitDramBytes;
                report.auStats.merge(s);
            }
        }

        report.phases.searchMs += search_ms;
        report.phases.featureMs += feature_ms;
        report.phases.aggregationMs += agg_ms;
        report.phases.otherMs += other_ms;

        // Module latency: the delayed pipeline runs N and F
        // concurrently when they occupy different units.
        bool can_overlap = mapping.overlapSearchFeature &&
                           mapping.search != mapping.feature;
        double module_ms =
            can_overlap ? std::max(search_ms, feature_ms)
                        : search_ms + feature_ms;
        module_ms += agg_ms + other_ms;
        report.totalMs += module_ms;
    }

    report.dramEnergyMj += static_cast<double>(report.dramBytes) * 8.0 *
                           cfg_.dram.energyPerBitPj * 1e-9;
    report.staticEnergyMj = report.totalMs * cfg_.staticPowerW;
    return report;
}

SocReport
Soc::simulate(const core::RunResult &run, const Mapping &mapping) const
{
    return simulate(run.trace, run.nits, run.ios, mapping);
}

} // namespace mesorasi::hwsim
