/**
 * @file
 * Fault-injection + fault-isolation tests: the robustness contract of
 * the serving engine, exercised by deterministic seeded faults.
 *
 *  1. Harness mechanics: arming is deterministic, sites fire exactly
 *     once at their armed hit, unknown sites are rejected.
 *  2. Every planted site surfaces as the right StatusCode through its
 *     natural unwind path — thread pool, plan step, arena, workspace,
 *     artifact loader — never as a crash or std::terminate.
 *  3. Isolation and recovery: a mid-plan fault poisons only its own
 *     ExecutionContext (reuse rejected with PoisonedContext; reset()
 *     restores bitwise-identical results), one failing item in an
 *     8-cloud batch gets a typed per-item Status while the other seven
 *     match the fault-free sequential run bit for bit, and a context
 *     poisoned on one thread never disturbs sibling threads.
 *  4. A seed sweep with every site armed never crashes, and a disarmed
 *     rerun reproduces fault-free bitwise results — the in-process
 *     version of the CI MESORASI_FAULT_SEED sweep.
 *
 * Every compile pins PassOptions::Enable explicitly so the suite is
 * green regardless of MESORASI_PLAN_PASSES.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "core/batch_runner.hpp"
#include "core/plan/plan_compiler.hpp"
#include "core/plan/serialize.hpp"
#include "geom/datasets.hpp"

namespace mesorasi::core::plan {
namespace {

using geom::PointCloud;
using tensor::Tensor;

NetworkConfig
miniNet()
{
    NetworkConfig cfg;
    cfg.name = "mini-fault";
    cfg.numInputPoints = 64;
    cfg.numClasses = 4;

    ModuleConfig sa1;
    sa1.name = "sa1";
    sa1.numCentroids = 24;
    sa1.k = 8;
    sa1.search = SearchKind::Ball;
    sa1.radius = 0.4f;
    sa1.sampling = SamplingKind::Random;
    sa1.mlpWidths = {8, 16};
    cfg.modules.push_back(sa1);

    ModuleConfig global;
    global.name = "g";
    global.search = SearchKind::Global;
    global.mlpWidths = {16};
    cfg.modules.push_back(global);

    cfg.headWidths = {8};
    return cfg;
}

CompileOptions
passesOn()
{
    CompileOptions o;
    o.passes.enable = PassOptions::Enable::On;
    return o;
}

std::vector<PointCloud>
someClouds(int32_t count, int32_t numPoints, uint64_t seed = 33)
{
    geom::ModelNetSim sim(seed, numPoints);
    std::vector<PointCloud> clouds;
    for (int32_t i = 0; i < count; ++i)
        clouds.push_back(sim.sample().cloud);
    return clouds;
}

void
expectBitwise(const Tensor &a, const Tensor &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(a.maxAbsDiff(b), 0.0f) << what;
}

// --- Harness mechanics ------------------------------------------------

TEST(FaultHarness, FiresExactlyOnceAtTheArmedHit)
{
    fault::ScopedArm arm(0, std::string(fault::kPlanStepThrow) + "@3");
    EXPECT_TRUE(fault::armed());
    EXPECT_FALSE(fault::fires(fault::kPlanStepThrow)); // hit 1
    EXPECT_FALSE(fault::fires(fault::kPlanStepThrow)); // hit 2
    EXPECT_TRUE(fault::fires(fault::kPlanStepThrow));  // hit 3: fires
    EXPECT_FALSE(fault::fires(fault::kPlanStepThrow)); // hit 4
    EXPECT_EQ(fault::hitCount(fault::kPlanStepThrow), 4u);
    EXPECT_EQ(fault::firedCount(), 1u);
    // An unarmed site never fires and never counts.
    EXPECT_FALSE(fault::fires(fault::kArenaAlloc));
    EXPECT_EQ(fault::hitCount(fault::kArenaAlloc), 0u);
}

TEST(FaultHarness, DisarmStopsCountingAndScopedArmRestores)
{
    {
        fault::ScopedArm arm(7, "all");
        EXPECT_TRUE(fault::armed());
        // pick is stable across calls for a fixed (seed, site).
        EXPECT_EQ(fault::pick(fault::kArtifactByteFlip, 1000),
                  fault::pick(fault::kArtifactByteFlip, 1000));
    }
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::fires(fault::kPlanStepThrow));
    EXPECT_EQ(fault::firedCount(), 0u);
}

TEST(FaultHarness, RejectsUnknownSitesAndBadSpecs)
{
    try {
        fault::arm(0, "no.such.site");
        fault::disarm();
        FAIL() << "unknown site accepted";
    } catch (const UsageError &e) {
        EXPECT_EQ(e.code(), StatusCode::InvalidInput);
    }
    try {
        fault::arm(0, std::string(fault::kPlanStepThrow) + "@0");
        fault::disarm();
        FAIL() << "hit 0 accepted (hits are 1-based)";
    } catch (const UsageError &e) {
        EXPECT_EQ(e.code(), StatusCode::InvalidInput);
    }
    EXPECT_FALSE(fault::armed());
}

// --- Individual sites surface as typed errors -------------------------

TEST(FaultSites, ThreadPoolTaskFaultIsTypedAndPoolSurvives)
{
    ThreadPool pool(4);
    int64_t n = static_cast<int64_t>(pool.size()) * 4;
    {
        fault::ScopedArm arm(0,
                             std::string(fault::kThreadPoolTask) + "@1");
        std::atomic<int64_t> ran{0};
        try {
            pool.parallelFor(n, /*grain=*/1, [&](int64_t, int64_t) {
                ran.fetch_add(1);
            });
            FAIL() << "injected pool fault did not surface";
        } catch (const InternalError &e) {
            EXPECT_EQ(e.code(), StatusCode::ExecFault);
        }
        EXPECT_EQ(fault::firedCount(), 1u);
    }
    // The pool keeps serving after the fault.
    std::atomic<int64_t> sum{0};
    pool.parallelFor(n, /*grain=*/1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(FaultSites, ArenaAllocFaultIsResourceExhausted)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    fault::ScopedArm arm(0, std::string(fault::kArenaAlloc) + "@1");
    try {
        engine.makeContext();
        FAIL() << "injected arena fault did not surface";
    } catch (const InternalError &e) {
        EXPECT_EQ(e.code(), StatusCode::ResourceExhausted);
    }
    fault::disarm();
    EXPECT_NE(engine.makeContext(), nullptr);
}

TEST(FaultSites, WorkspaceGrowthFaultIsResourceExhausted)
{
    Workspace ws;
    {
        fault::ScopedArm arm(0,
                             std::string(fault::kWorkspaceGrow) + "@1");
        try {
            ws.floats(0, 64);
            FAIL() << "injected workspace fault did not surface";
        } catch (const InternalError &e) {
            EXPECT_EQ(e.code(), StatusCode::ResourceExhausted);
        }
    }
    // Growth succeeds once disarmed; warm reuse never re-enters the
    // growth path at all.
    EXPECT_NE(ws.floats(0, 64), nullptr);
    EXPECT_EQ(ws.capacity(0), 64u);
}

TEST(FaultSites, ArtifactByteFlipRejectsTypedOrLoadsAndRecovers)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<uint8_t> bytes = saveEngineToBytes(engine);
    PointCloud cloud = someClouds(1, 64)[0];
    auto rctx = engine.makeContext();
    Tensor ref = engine.execute(cloud, 5, *rctx);

    // Sweep seeds so the flip lands in different regions: headers and
    // tables must reject with CorruptArtifact; flips into weight
    // payloads may decode cleanly — both are acceptable, crashing is
    // not. The disarmed reload must always reproduce ref bitwise.
    for (uint64_t seed = 0; seed < 32; ++seed) {
        fault::arm(seed, std::string(fault::kArtifactByteFlip) + "@1");
        try {
            CompiledEngine mangled =
                loadEngineFromBytes(bytes.data(), bytes.size());
            (void)mangled; // decoded cleanly; never executed
        } catch (const UsageError &e) {
            EXPECT_EQ(e.code(), StatusCode::CorruptArtifact)
                << "seed " << seed << ": " << e.what();
        } catch (const InternalError &) {
        }
        fault::disarm();
        CompiledEngine reloaded =
            loadEngineFromBytes(bytes.data(), bytes.size());
        auto ctx = reloaded.makeContext();
        expectBitwise(reloaded.execute(cloud, 5, *ctx), ref,
                      "disarmed reload, seed " + std::to_string(seed));
    }
}

// --- Context poisoning and recovery -----------------------------------

TEST(FaultIsolation, StepFaultPoisonsContextAndResetRecoversBitwise)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud cloud = someClouds(1, 64)[0];

    auto ctx = engine.makeContext();
    Tensor ref = engine.execute(cloud, 5, *ctx); // fault-free baseline

    {
        fault::ScopedArm arm(0,
                             std::string(fault::kPlanStepThrow) + "@2");
        Status s = engine.tryExecute(cloud, 5, *ctx);
        EXPECT_EQ(s.code(), StatusCode::ExecFault) << s.toString();
    }
    EXPECT_TRUE(ctx->poisoned());
    EXPECT_FALSE(ctx->poisonMessage().empty());

    // Reuse without reset is rejected — via both APIs — and the
    // rejection does not clear the poison.
    Status reuse = engine.tryExecute(cloud, 5, *ctx);
    EXPECT_EQ(reuse.code(), StatusCode::PoisonedContext)
        << reuse.toString();
    try {
        engine.execute(cloud, 5, *ctx);
        FAIL() << "poisoned context accepted an execute";
    } catch (const UsageError &e) {
        EXPECT_EQ(e.code(), StatusCode::PoisonedContext);
    }
    EXPECT_TRUE(ctx->poisoned());

    // reset() restores a serviceable context with bitwise-identical
    // results to the pre-fault baseline.
    ctx->reset();
    EXPECT_FALSE(ctx->poisoned());
    expectBitwise(engine.execute(cloud, 5, *ctx), ref,
                  "post-reset execute");
}

TEST(FaultIsolation, NanPoisonSurfacesAsNumericFault)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud cloud = someClouds(1, 64)[0];
    auto ctx = engine.makeContext();
    Tensor ref = engine.execute(cloud, 5, *ctx);

    // Poison the final step's output — it lands in the logits, so the
    // end-of-execute finite scan must catch it.
    size_t lastStep = engine.steps().size();
    {
        fault::ScopedArm arm(0, std::string(fault::kPlanNanPoison) +
                                    "@" + std::to_string(lastStep));
        Status s = engine.tryExecute(cloud, 5, *ctx);
        EXPECT_EQ(s.code(), StatusCode::NumericFault) << s.toString();
    }
    EXPECT_TRUE(ctx->poisoned());
    ctx->reset();
    expectBitwise(engine.execute(cloud, 5, *ctx), ref,
                  "post-NaN reset execute");
}

TEST(FaultIsolation, InvalidInputDoesNotPoisonTheContext)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud cloud = someClouds(1, 64)[0];
    auto ctx = engine.makeContext();
    Tensor ref = engine.execute(cloud, 5, *ctx);

    PointCloud nanCloud = cloud;
    nanCloud[3].y = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(engine.tryExecute(nanCloud, 5, *ctx).code(),
              StatusCode::InvalidInput);
    EXPECT_EQ(engine.validate(nanCloud).code(),
              StatusCode::InvalidInput);

    PointCloud small = someClouds(1, 32)[0];
    EXPECT_EQ(engine.tryExecute(small, 5, *ctx).code(),
              StatusCode::ShapeMismatch);
    EXPECT_EQ(engine.tryExecute(PointCloud(), 5, *ctx).code(),
              StatusCode::InvalidInput);

    // The rejections happened at the front door: the context is still
    // clean and still produces the baseline bitwise.
    EXPECT_FALSE(ctx->poisoned());
    expectBitwise(engine.execute(cloud, 5, *ctx), ref,
                  "execute after rejected inputs");
}

TEST(FaultIsolation, ExecutorRejectsMalformedCloudsLikeTheEngine)
{
    // NetworkExecutor::run and CompiledEngine::validate share one front
    // door: a non-finite coordinate is InvalidInput (the executor used
    // to accept a NaN cloud and return finite logits), a wrong point
    // count is ShapeMismatch in both runtimes.
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud nanCloud = someClouds(1, 64)[0];
    nanCloud[3].y = std::numeric_limits<float>::quiet_NaN();
    PointCloud small = someClouds(1, 32)[0];

    struct Case
    {
        const PointCloud *cloud;
        StatusCode code;
    };
    for (const Case &c : {Case{&nanCloud, StatusCode::InvalidInput},
                          Case{&small, StatusCode::ShapeMismatch}}) {
        EXPECT_EQ(engine.validate(*c.cloud).code(), c.code);
        try {
            exec.run(*c.cloud, PipelineKind::Delayed, 5);
            ADD_FAILURE() << "executor accepted a cloud the engine "
                             "rejects with "
                          << statusCodeName(c.code);
        } catch (const UsageError &e) {
            EXPECT_EQ(e.code(), c.code) << e.what();
        }
    }
}

TEST(FaultIsolation, ContextPoolResetsPoisonedContextsOnRelease)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud cloud = someClouds(1, 64)[0];
    ContextPool pool(engine);

    auto ctx = pool.acquire();
    Tensor ref = engine.execute(cloud, 5, *ctx);
    {
        fault::ScopedArm arm(0,
                             std::string(fault::kPlanStepThrow) + "@1");
        EXPECT_EQ(engine.tryExecute(cloud, 5, *ctx).code(),
                  StatusCode::ExecFault);
    }
    EXPECT_TRUE(ctx->poisoned());
    ExecutionContext *raw = ctx.get();
    pool.release(std::move(ctx));

    // The recycled context is the same object, already reset, and
    // serves the baseline bitwise.
    auto again = pool.acquire();
    EXPECT_EQ(again.get(), raw);
    EXPECT_FALSE(again->poisoned());
    expectBitwise(engine.execute(cloud, 5, *again), ref,
                  "recycled post-poison context");
}

// --- Batch isolation (the acceptance scenario) ------------------------

TEST(FaultIsolation, OneFaultedItemIn8CloudBatchOthersBitwise)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = someClouds(8, 64);
    core::BatchRunner runner(exec, /*numThreads=*/1);

    BatchResult ref = runner.run(engine, clouds, /*seedBase=*/7);
    ASSERT_EQ(ref.numFailed(), 0);

    // Fail cloud 3 at its second step: the sequential walk hits the
    // step site numSteps times per item, so item 3 owns hits
    // [3*S+1, 4*S].
    size_t S = engine.steps().size();
    fault::ScopedArm arm(0, std::string(fault::kPlanStepThrow) + "@" +
                                std::to_string(3 * S + 2));
    BatchResult got = runner.run(engine, clouds, /*seedBase=*/7);

    EXPECT_EQ(got.numFailed(), 1);
    EXPECT_EQ(got.items[3].status.code(), StatusCode::ExecFault)
        << got.items[3].status.toString();
    EXPECT_EQ(got.items[3].predicted, -1);
    for (size_t i = 0; i < clouds.size(); ++i) {
        if (i == 3)
            continue;
        ASSERT_TRUE(got.items[i].status.isOk())
            << "item " << i << ": " << got.items[i].status.toString();
        expectBitwise(got.items[i].run.logits, ref.items[i].run.logits,
                      "item " + std::to_string(i));
        EXPECT_EQ(got.items[i].predicted, ref.items[i].predicted);
    }
}

TEST(FaultIsolation, MalformedCloudsGetTypedStatusOthersServe)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = someClouds(8, 64);
    core::BatchRunner runner(exec, /*numThreads=*/1);
    BatchResult ref = runner.run(engine, clouds, /*seedBase=*/7);

    std::vector<PointCloud> bad = clouds;
    bad[2][5].x = std::numeric_limits<float>::infinity();
    bad[5] = someClouds(1, 32)[0]; // wrong point count

    BatchResult got = runner.run(engine, bad, /*seedBase=*/7);
    EXPECT_EQ(got.numFailed(), 2);
    EXPECT_EQ(got.items[2].status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(got.items[5].status.code(), StatusCode::ShapeMismatch);
    for (size_t i = 0; i < clouds.size(); ++i) {
        if (i == 2 || i == 5)
            continue;
        ASSERT_TRUE(got.items[i].status.isOk());
        expectBitwise(got.items[i].run.logits, ref.items[i].run.logits,
                      "item " + std::to_string(i));
    }

    // The executor path shares the engine's front door, codes included.
    BatchResult gref = runner.run(clouds, PipelineKind::Delayed, 7);
    BatchResult ggot = runner.run(bad, PipelineKind::Delayed, 7);
    EXPECT_EQ(ggot.numFailed(), 2);
    EXPECT_EQ(ggot.items[2].status.code(), StatusCode::InvalidInput);
    EXPECT_EQ(ggot.items[5].status.code(), StatusCode::ShapeMismatch)
        << ggot.items[5].status.toString();
    for (size_t i = 0; i < clouds.size(); ++i) {
        if (i == 2 || i == 5)
            continue;
        ASSERT_TRUE(ggot.items[i].status.isOk());
        expectBitwise(ggot.items[i].run.logits,
                      gref.items[i].run.logits,
                      "executor item " + std::to_string(i));
    }
}

TEST(FaultIsolation, PoisonOnOneThreadDoesNotDisturbSiblings)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    PointCloud cloud = someClouds(1, 64)[0];
    auto rctx = engine.makeContext();
    Tensor ref = engine.execute(cloud, 5, *rctx);

    constexpr int kThreads = 4;
    std::vector<std::unique_ptr<ExecutionContext>> ctxs;
    for (int t = 0; t < kThreads; ++t)
        ctxs.push_back(engine.makeContext());
    std::vector<Status> statuses(kThreads);
    std::vector<Tensor> logits(kThreads);

    // Exactly one global firing: whichever thread records hit 1 takes
    // the fault; the siblings must complete bitwise clean.
    fault::ScopedArm arm(0, std::string(fault::kPlanStepThrow) + "@1");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            statuses[static_cast<size_t>(t)] =
                engine.tryExecute(cloud, 5, *ctxs[static_cast<size_t>(t)]);
            if (statuses[static_cast<size_t>(t)].isOk())
                logits[static_cast<size_t>(t)] =
                    ctxs[static_cast<size_t>(t)]->logits();
        });
    }
    for (auto &th : threads)
        th.join();

    int faulted = 0;
    for (int t = 0; t < kThreads; ++t) {
        const Status &s = statuses[static_cast<size_t>(t)];
        if (!s.isOk()) {
            ++faulted;
            EXPECT_EQ(s.code(), StatusCode::ExecFault) << s.toString();
            EXPECT_TRUE(ctxs[static_cast<size_t>(t)]->poisoned());
        } else {
            EXPECT_FALSE(ctxs[static_cast<size_t>(t)]->poisoned());
            expectBitwise(logits[static_cast<size_t>(t)], ref,
                          "thread " + std::to_string(t));
        }
    }
    EXPECT_EQ(faulted, 1);
    EXPECT_EQ(fault::firedCount(), 1u);
}

// --- Seed sweep: never crash, always recover --------------------------

TEST(FaultSweep, AllSitesArmedNeverCrashAndDisarmedRerunIsBitwise)
{
    NetworkExecutor exec(miniNet(), /*weightSeed=*/3);
    CompiledEngine engine =
        PlanCompiler::compile(exec, PipelineKind::Delayed, passesOn());
    std::vector<PointCloud> clouds = someClouds(4, 64);
    core::BatchRunner runner(exec, /*numThreads=*/1);
    BatchResult ref = runner.run(engine, clouds, /*seedBase=*/7);
    ASSERT_EQ(ref.numFailed(), 0);

    for (uint64_t seed = 1; seed <= 8; ++seed) {
        fault::arm(seed, "all");
        // The armed run may fault any subset of items (or none, when
        // no site reaches its seed-derived hit) — every failure must
        // be a typed per-item status, and the batch call itself must
        // return normally.
        BatchResult armed = runner.run(engine, clouds, /*seedBase=*/7);
        for (size_t i = 0; i < armed.items.size(); ++i) {
            if (armed.items[i].status.isOk())
                continue;
            StatusCode c = armed.items[i].status.code();
            EXPECT_TRUE(c == StatusCode::ExecFault ||
                        c == StatusCode::NumericFault ||
                        c == StatusCode::ResourceExhausted)
                << "seed " << seed << " item " << i << ": "
                << armed.items[i].status.toString();
        }
        fault::disarm();

        BatchResult clean = runner.run(engine, clouds, /*seedBase=*/7);
        ASSERT_EQ(clean.numFailed(), 0) << "seed " << seed;
        for (size_t i = 0; i < clean.items.size(); ++i)
            expectBitwise(clean.items[i].run.logits,
                          ref.items[i].run.logits,
                          "seed " + std::to_string(seed) + " item " +
                              std::to_string(i));
    }
}

} // namespace
} // namespace mesorasi::core::plan
