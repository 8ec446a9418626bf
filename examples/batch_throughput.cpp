/**
 * @file
 * Batched serving: many clouds through one network concurrently.
 *
 * The production shape of the paper's workloads is a stream of frames
 * pushed through a trained network. This example builds a 16-cloud
 * ModelNet-style batch, runs it through PointNet++ (c) under the
 * delayed-aggregation pipeline sequentially and with a worker pool,
 * and compares wall clock, per-cloud latency, and throughput. It also
 * demonstrates the pluggable search backends: the same batch executes
 * with every registered backend, producing identical predictions.
 *
 * Finally it shows the production serving shape: the network compiled
 * once into a core::plan::CompiledEngine (AOT shapes, compile-time
 * backend resolution, liveness-planned arena) and reused across the
 * whole batch and across repetitions — the per-request path does zero
 * shape inference and no per-run allocation, with predictions bitwise
 * identical to the reference NetworkExecutor path. Set
 * MESORASI_ENGINE_CACHE=<path> to persist the compiled engine as a
 * serialized artifact and reload it on later runs instead of
 * recompiling (loaded engines execute bit-identically).
 */
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "run_guarded.hpp"
#include "common/table.hpp"
#include "core/batch_runner.hpp"
#include "core/networks.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "geom/datasets.hpp"
#include "neighbor/search_backend.hpp"
#include "quant/calibrate.hpp"

using namespace mesorasi;

int
runDemo(int argc, char **argv)
{
    bool dumpPlan = false;
    bool quantize = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dump-plan") == 0)
            dumpPlan = true;
        if (std::strcmp(argv[i], "--quantize") == 0)
            quantize = true;
    }

    core::NetworkConfig cfg = core::zoo::pointnetppClassification();
    core::NetworkExecutor exec(cfg, /*weightSeed=*/1);

    // --quantize: calibrate over a few representative clouds and
    // compile the int8-PFT engine instead of the fp32 one (the
    // TensorRT-style PTQ workflow; see src/quant/calibrate.hpp).
    auto compileMaybeQuantized = [&] {
        if (!quantize)
            return core::plan::PlanCompiler::compile(
                exec, core::PipelineKind::Delayed);
        geom::ModelNetSim calSim(41, cfg.numInputPoints);
        std::vector<geom::PointCloud> calClouds;
        for (int i = 0; i < 4; ++i)
            calClouds.push_back(calSim.sample().cloud);
        return quant::compileQuantizedPft(
            exec, core::PipelineKind::Delayed, {}, calClouds);
    };

    // --dump-plan: print the optimized step listing (step kinds,
    // buffer shapes with per-buffer dtype and quantization scale,
    // arena offsets, pass annotations and statistics) and exit — the
    // debugging view of the optimizer pipeline's output.
    if (dumpPlan) {
        compileMaybeQuantized().dump(std::cout);
        return 0;
    }

    // 1. A batch of 16 synthetic ModelNet clouds.
    geom::ModelNetSim sim(17, cfg.numInputPoints);
    std::vector<geom::PointCloud> clouds;
    for (int i = 0; i < 16; ++i)
        clouds.push_back(sim.sample().cloud);

    // 2. Sequential vs parallel execution of the same batch. Seeds are
    //    fixed per cloud, so both runs produce identical results.
    core::BatchRunner sequential(exec, /*numThreads=*/1);
    core::BatchRunner parallel(exec, /*numThreads=*/0); // global pool

    core::BatchResult seq =
        sequential.run(clouds, core::PipelineKind::Delayed, 7);
    core::BatchResult par =
        parallel.run(clouds, core::PipelineKind::Delayed, 7);

    Table t("16-cloud batch through " + cfg.name +
                " (delayed pipeline)",
            {"Mode", "Batch wall ms", "Median cloud ms", "p90 cloud ms",
             "Clouds/s"});
    t.addRow({"sequential", fmt(seq.wallMs, 1), fmt(seq.latency.median, 1),
              fmt(seq.p90LatencyMs, 1), fmt(seq.throughput(), 1)});
    t.addRow({std::to_string(parallel.numThreads()) + " threads",
              fmt(par.wallMs, 1), fmt(par.latency.median, 1),
              fmt(par.p90LatencyMs, 1), fmt(par.throughput(), 1)});
    t.print();
    std::cout << "speedup: " << fmtX(seq.wallMs / par.wallMs)
              << "   prediction agreement: "
              << fmtPct(core::predictionAgreement(seq, par)) << "\n\n";

    // 3. Backend pluggability: identical predictions whichever search
    //    structure answers the N stage.
    Table b("Same batch, per search backend (sequential)",
            {"Backend", "Batch wall ms", "Agreement vs auto"});
    for (const std::string &name : neighbor::registeredBackendNames()) {
        core::NetworkConfig bcfg = cfg;
        bcfg.backend = neighbor::backendFromName(name);
        core::NetworkExecutor bexec(bcfg, 1);
        core::BatchRunner brunner(bexec, 1);
        core::BatchResult r =
            brunner.run(clouds, core::PipelineKind::Delayed, 7);
        b.addRow({name, fmt(r.wallMs, 1),
                  fmtPct(core::predictionAgreement(seq, r))});
    }
    b.print();

    // 4. Engine-cached serving loop: compile once, evaluate everywhere.
    //    One CompiledEngine (and one warm ContextPool) serves the whole
    //    batch across repetitions; per-request work is a tight step
    //    walk over preallocated arena memory. With
    //    MESORASI_ENGINE_CACHE=<path> the engine is loaded from a
    //    previously saved artifact (or compiled and saved on the first
    //    run) — the loaded engine executes bit-identically.
    const char *cachePath = std::getenv("MESORASI_ENGINE_CACHE");
    auto c0 = std::chrono::steady_clock::now();
    core::plan::CompiledEngine engine = [&] {
        if (cachePath && std::ifstream(cachePath).good()) {
            std::cout << "engine cache: loading " << cachePath << "\n";
            return core::plan::loadEngine(cachePath);
        }
        core::plan::CompiledEngine e = compileMaybeQuantized();
        if (cachePath) {
            core::plan::saveEngine(e, cachePath);
            std::cout << "engine cache: saved " << cachePath << "\n";
        }
        return e;
    }();
    double compileMs = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - c0)
                           .count();
    core::plan::ContextPool ctxPool(engine);
    parallel.run(engine, clouds, 7, &ctxPool); // warm the contexts

    Table p("Engine-cached serving — compile once ("
                + fmt(compileMs, 2) + " ms), reuse across 3 reps",
            {"Rep", "Executor wall ms", "Plan wall ms", "Clouds/s",
             "Agreement"});
    for (int rep = 0; rep < 3; ++rep) {
        core::BatchResult rebuild =
            parallel.run(clouds, core::PipelineKind::Delayed, 7);
        core::BatchResult served =
            parallel.run(engine, clouds, 7, &ctxPool);
        p.addRow({std::to_string(rep), fmt(rebuild.wallMs, 1),
                  fmt(served.wallMs, 1), fmt(served.throughput(), 1),
                  fmtPct(core::predictionAgreement(rebuild, served))});
    }
    p.print();

    Table m("Compiled engine — AOT shapes and resolved backends",
            {"Module", "NIn", "NOut", "k", "Backend"});
    for (const auto &info : engine.modules())
        m.addRow({info.name, std::to_string(info.io.nIn),
                  std::to_string(info.io.nOut),
                  std::to_string(info.io.k),
                  info.global ? "-"
                  : !info.customBackend.empty()
                      ? info.customBackend
                      : neighbor::backendName(info.backend)});
    m.print();
    std::cout << "arena: " << engine.stats().arenaFloats * 4 / 1024
              << " KiB liveness-aliased (vs "
              << engine.stats().naiveFloats * 4 / 1024
              << " KiB unaliased), " << engine.stats().numBuffers
              << " buffers, " << engine.stats().numSteps << " steps\n";
    std::cout << "artifact: "
              << core::plan::serializedEngineSize(engine)
              << " bytes (v" << core::plan::kEngineFormatVersion
              << ")\n";
    if (quantize) {
        // Arena/artifact deltas versus the fp32 engine this run
        // replaced. The 4x win is the gather traffic (int8 PFT rows);
        // the arena can grow a little because the fp32 MLP output
        // stays live as the quantizer's source.
        core::plan::CompiledEngine fp32 = core::plan::PlanCompiler::compile(
            exec, core::PipelineKind::Delayed);
        std::cout << "quantized: " << engine.stats().buffersQuantized
                  << " PFT buffers (int8); arena "
                  << engine.stats().arenaFloats * 4 / 1024 << " KiB vs "
                  << fp32.stats().arenaFloats * 4 / 1024
                  << " KiB fp32, artifact "
                  << core::plan::serializedEngineSize(engine)
                  << " bytes vs "
                  << core::plan::serializedEngineSize(fp32)
                  << " bytes fp32\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return mesorasi::examples::runGuarded(
        [&] { return runDemo(argc, argv); });
}
