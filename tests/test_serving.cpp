/**
 * @file
 * Tests for the serving front door (serve::ServingEngine) and the
 * machinery under it.
 *
 * The load-bearing contract: serving a cloud through the async queue /
 * dynamic batcher / sharded context pools produces logits bitwise
 * identical to a direct CompiledEngine::execute with the same seed —
 * for every combination of the batching knobs, under fault soak, and
 * through shutdown. Also covers the typed queue-full backpressure, the
 * ContextPool capacity bound, and the BatchRunner executor-path
 * per-item fault isolation.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "common/fault_injection.hpp"
#include "core/batch_runner.hpp"
#include "core/plan/plan_compiler.hpp"
#include "geom/datasets.hpp"
#include "neighbor/search_backend.hpp"
#include "serve/serving_engine.hpp"

namespace mesorasi::serve {
namespace {

core::NetworkConfig
smallNetwork()
{
    core::NetworkConfig cfg;
    cfg.name = "tiny-pnpp";
    cfg.task = core::Task::Classification;
    cfg.numInputPoints = 256;
    cfg.numClasses = 10;

    core::ModuleConfig sa1;
    sa1.name = "sa1";
    sa1.numCentroids = 128;
    sa1.k = 16;
    sa1.search = core::SearchKind::Ball;
    sa1.radius = 0.25f;
    sa1.mlpWidths = {16, 32};
    cfg.modules.push_back(sa1);

    core::ModuleConfig sa2;
    sa2.name = "sa2";
    sa2.numCentroids = 32;
    sa2.k = 8;
    sa2.search = core::SearchKind::Knn;
    sa2.mlpWidths = {32, 64};
    cfg.modules.push_back(sa2);

    core::ModuleConfig global;
    global.name = "global";
    global.search = core::SearchKind::Global;
    global.mlpWidths = {64};
    cfg.modules.push_back(global);

    cfg.headWidths = {32};
    return cfg;
}

std::vector<geom::PointCloud>
someClouds(int32_t count, int32_t numPoints)
{
    geom::ModelNetSim sim(33, numPoints);
    std::vector<geom::PointCloud> clouds;
    for (int32_t i = 0; i < count; ++i)
        clouds.push_back(sim.sample().cloud);
    return clouds;
}

bool
bitwiseEqual(const tensor::Tensor &a, const tensor::Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.rows()) *
                           static_cast<size_t>(a.cols()) *
                           sizeof(float)) == 0;
}

/** Direct (no serving layer) logits per cloud, seed = seedBase + i. */
std::vector<tensor::Tensor>
directLogits(const core::plan::CompiledEngine &engine,
             const std::vector<geom::PointCloud> &clouds,
             uint64_t seedBase)
{
    std::vector<tensor::Tensor> out;
    auto ctx = engine.makeContext();
    for (size_t i = 0; i < clouds.size(); ++i)
        out.push_back(engine.execute(
            clouds[i], seedBase + static_cast<uint64_t>(i), *ctx));
    return out;
}

TEST(ServingEngine, KnobSweepIsBitwiseIdenticalToDirectExecute)
{
    core::NetworkExecutor exec(smallNetwork(), /*weightSeed=*/1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    auto clouds = someClouds(10, 256);
    const uint64_t seedBase = 7;
    auto direct = directLogits(engine, clouds, seedBase);

    struct Knobs
    {
        int32_t maxBatch;
        int64_t maxWaitUs;
        int32_t shards;
        int32_t threads;
    };
    // Batch-of-1 greedy, coalescing single shard, multi-shard
    // multi-worker, and a shard count that does not divide the request
    // count — a request's logits must not depend on any of it.
    for (const Knobs &k : {Knobs{1, 0, 1, 1}, Knobs{4, 500, 1, 2},
                           Knobs{8, 2000, 2, 2}, Knobs{3, 0, 3, 1}}) {
        ServingOptions opts;
        opts.maxBatch = k.maxBatch;
        opts.maxWaitUs = k.maxWaitUs;
        opts.numShards = k.shards;
        opts.threadsPerShard = k.threads;
        ServingEngine server(engine, opts);

        std::vector<Ticket> tickets;
        for (size_t i = 0; i < clouds.size(); ++i)
            tickets.push_back(server.submit(
                clouds[i], seedBase + static_cast<uint64_t>(i)));
        for (size_t i = 0; i < tickets.size(); ++i) {
            tickets[i].wait();
            ASSERT_TRUE(tickets[i].status().isOk())
                << "request " << i << ": "
                << tickets[i].status().message();
            EXPECT_TRUE(bitwiseEqual(tickets[i].logits(), direct[i]))
                << "request " << i << " diverged under maxBatch="
                << k.maxBatch << " maxWaitUs=" << k.maxWaitUs
                << " shards=" << k.shards;
            EXPECT_GE(tickets[i].batchSize(), 1);
            EXPECT_LE(tickets[i].batchSize(), k.maxBatch);
            EXPECT_GE(tickets[i].shard(), 0);
            EXPECT_LT(tickets[i].shard(), k.shards);
            EXPECT_GE(tickets[i].latencyMs(), 0.0);
        }
        ServingStats stats = server.stats();
        EXPECT_EQ(stats.submitted, clouds.size());
        EXPECT_EQ(stats.served, clouds.size());
        EXPECT_EQ(stats.failed, 0u);
        EXPECT_EQ(stats.rejected, 0u);
        EXPECT_GE(stats.batches, 1u);
        EXPECT_EQ(stats.batchSizes.total(), stats.batches);
    }
}

TEST(ServingEngine, QueueFullBackpressureIsTypedAndImmediate)
{
    core::NetworkExecutor exec(smallNetwork(), 1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    auto clouds = someClouds(5, 256);
    auto direct = directLogits(engine, clouds, 3);

    ServingOptions opts;
    opts.numShards = 1;
    opts.threadsPerShard = 1;
    opts.queueCapacity = 2;
    opts.maxBatch = 2;
    opts.startPaused = true; // workers parked: the queue must fill
    ServingEngine server(engine, opts);

    std::vector<Ticket> queued;
    queued.push_back(server.submit(clouds[0], 3));
    queued.push_back(server.submit(clouds[1], 4));
    EXPECT_FALSE(queued[0].ready());
    EXPECT_FALSE(queued[1].ready());

    // Queue is at capacity: overload completes synchronously with the
    // typed backpressure status instead of buffering without bound.
    for (size_t i = 2; i < clouds.size(); ++i) {
        Ticket t = server.submit(clouds[i], 3 + static_cast<uint64_t>(i));
        ASSERT_TRUE(t.ready());
        EXPECT_EQ(t.status().code(), StatusCode::ResourceExhausted);
        EXPECT_EQ(t.shard(), -1);
    }

    server.resume();
    for (size_t i = 0; i < queued.size(); ++i) {
        queued[i].wait();
        ASSERT_TRUE(queued[i].status().isOk());
        EXPECT_TRUE(bitwiseEqual(queued[i].logits(), direct[i]));
    }
    ServingStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.served, 2u);
    EXPECT_EQ(stats.rejected, 3u);
}

TEST(ServingEngine, PausedFillProducesDeterministicBatchSizes)
{
    core::NetworkExecutor exec(smallNetwork(), 1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    auto clouds = someClouds(7, 256);

    ServingOptions opts;
    opts.numShards = 1;
    opts.threadsPerShard = 1;
    opts.maxBatch = 4;
    opts.maxWaitUs = 0; // greedy: drain whatever is queued
    opts.startPaused = true;
    ServingEngine server(engine, opts);

    std::vector<Ticket> tickets;
    for (size_t i = 0; i < clouds.size(); ++i)
        tickets.push_back(
            server.submit(clouds[i], 11 + static_cast<uint64_t>(i)));
    server.resume();
    for (Ticket &t : tickets)
        t.wait();

    // 7 queued requests, one greedy worker, maxBatch 4: exactly one
    // batch of 4 and one of 3.
    ServingStats stats = server.stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.batchSizes.count(4), 1u);
    EXPECT_EQ(stats.batchSizes.count(3), 1u);
    EXPECT_DOUBLE_EQ(stats.meanBatchSize(), 3.5);
}

TEST(ServingEngine, FaultSoakKeepsSurvivorsBitwiseClean)
{
    core::NetworkExecutor exec(smallNetwork(), 1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    auto clouds = someClouds(12, 256);
    const uint64_t seedBase = 21;
    auto direct = directLogits(engine, clouds, seedBase);

    for (uint64_t faultSeed = 1; faultSeed <= 4; ++faultSeed) {
        std::vector<Ticket> tickets;
        {
            // Armed for the serving window only, firing once per site
            // at a seed-derived hit. Faults can land in context
            // construction, plan steps, workspace growth, the pool
            // task — all must surface as typed per-ticket statuses
            // while the engine keeps serving. plan.nan_poison is
            // deliberately not armed: a mid-plan NaN can wash out
            // through max-pooling into finite-but-wrong logits with an
            // Ok status (detected only when it reaches the logits), so
            // it cannot back a survivors-are-bitwise-clean assertion.
            fault::ScopedArm arm(
                faultSeed,
                std::string(fault::kThreadPoolTask) + "," +
                    fault::kPlanStepThrow + "," + fault::kArenaAlloc +
                    "," + fault::kWorkspaceGrow);
            ServingOptions opts;
            opts.numShards = 2;
            opts.threadsPerShard = 2;
            opts.maxBatch = 4;
            ServingEngine server(engine, opts);
            for (size_t i = 0; i < clouds.size(); ++i)
                tickets.push_back(server.submit(
                    clouds[i], seedBase + static_cast<uint64_t>(i)));
            for (Ticket &t : tickets)
                t.wait();

            // The engine survives its faults: a fresh request after
            // the soak traffic still serves (sites fire only once).
            Ticket after = server.submit(clouds[0], seedBase);
            after.wait();
            if (after.status().isOk()) {
                EXPECT_TRUE(bitwiseEqual(after.logits(), direct[0]));
            }
        }
        for (size_t i = 0; i < tickets.size(); ++i) {
            ASSERT_TRUE(tickets[i].ready());
            if (tickets[i].status().isOk()) {
                EXPECT_TRUE(bitwiseEqual(tickets[i].logits(), direct[i]))
                    << "survivor " << i << " not bitwise clean under "
                    << "fault seed " << faultSeed;
            } else {
                EXPECT_NE(tickets[i].status().code(), StatusCode::Ok);
                EXPECT_FALSE(tickets[i].status().message().empty());
            }
        }
    }
}

TEST(ServingEngine, ShutdownDrainsInFlightTickets)
{
    core::NetworkExecutor exec(smallNetwork(), 1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);
    auto clouds = someClouds(6, 256);
    auto direct = directLogits(engine, clouds, 31);

    ServingOptions opts;
    opts.numShards = 2;
    opts.threadsPerShard = 1;
    opts.maxBatch = 4;
    opts.startPaused = true;
    ServingEngine server(engine, opts);

    std::vector<Ticket> tickets;
    for (size_t i = 0; i < clouds.size(); ++i)
        tickets.push_back(
            server.submit(clouds[i], 31 + static_cast<uint64_t>(i)));

    // Shutdown with every request still queued (workers parked): the
    // drain serves them all with real results before joining.
    server.shutdown();
    for (size_t i = 0; i < tickets.size(); ++i) {
        ASSERT_TRUE(tickets[i].ready());
        ASSERT_TRUE(tickets[i].status().isOk());
        EXPECT_TRUE(bitwiseEqual(tickets[i].logits(), direct[i]));
    }

    Ticket late = server.submit(clouds[0], 31);
    ASSERT_TRUE(late.ready());
    EXPECT_EQ(late.status().code(), StatusCode::Cancelled);
    EXPECT_GE(server.stats().cancelled, 1u);
    EXPECT_TRUE(server.stopped());
}

TEST(ContextPool, CapacityBoundsCheckoutsAndTryAcquireNeverBlocks)
{
    core::NetworkExecutor exec(smallNetwork(), 1);
    core::plan::CompiledEngine engine = core::plan::PlanCompiler::compile(
        exec, core::PipelineKind::Delayed);

    core::plan::ContextPool bounded(engine, /*capacity=*/2);
    EXPECT_EQ(bounded.capacity(), 2);
    auto a = bounded.tryAcquire();
    auto b = bounded.tryAcquire();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(bounded.outstanding(), 2);
    // Fully checked out: the non-blocking path reports exhaustion
    // instead of building a third context or waiting.
    EXPECT_EQ(bounded.tryAcquire(), nullptr);
    bounded.release(std::move(a));
    auto c = bounded.tryAcquire();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(bounded.created(), 2);
    bounded.release(std::move(b));
    bounded.release(std::move(c));
    EXPECT_EQ(bounded.outstanding(), 0);

    // Historical default: capacity 0 = unbounded, tryAcquire always
    // yields a context.
    core::plan::ContextPool unbounded(engine);
    std::vector<std::unique_ptr<core::plan::ExecutionContext>> held;
    for (int i = 0; i < 3; ++i) {
        held.push_back(unbounded.tryAcquire());
        ASSERT_NE(held.back(), nullptr);
    }
    EXPECT_EQ(unbounded.created(), 3);
}

// --- Executor-path per-item fault isolation ---------------------------

// A backend that throws when the point set starts with the sentinel
// coordinates below — deterministic per-cloud failure injection for
// the executor batch path (the backend is built from the
// module's input points, so exactly the poisoned cloud trips it).
constexpr float kTripX = 0.03125f, kTripY = -0.03125f, kTripZ = 0.65625f;

TEST(BatchRunner, ExecutorParallelModeIsolatesPerItemFailures)
{
    neighbor::registerSearchBackend(
        "tripwire",
        [](const neighbor::PointsView &p,
           const neighbor::SearchHints &h) {
            if (p.size() > 0 && p.row(0)[0] == kTripX &&
                p.row(0)[1] == kTripY && p.row(0)[2] == kTripZ)
                throw std::runtime_error(
                    "tripwire backend: poisoned cloud");
            return neighbor::makeBackendByName("brute_force", p, h);
        });

    core::NetworkConfig cfg = smallNetwork();
    cfg.modules[0].customBackend = "tripwire";
    core::NetworkExecutor exec(cfg, 1);

    auto clean = someClouds(6, 256);
    auto poisoned = clean;
    poisoned[2][0] = geom::Point3{kTripX, kTripY, kTripZ};

    core::BatchRunner parallel(exec, /*numThreads=*/4);
    core::BatchResult healthy =
        parallel.run(clean, core::PipelineKind::Delayed, 7);
    for (const auto &item : healthy.items)
        ASSERT_TRUE(item.status.isOk());

    core::BatchResult faulted =
        parallel.run(poisoned, core::PipelineKind::Delayed, 7);
    ASSERT_EQ(faulted.items.size(), 6u);
    EXPECT_EQ(faulted.numFailed(), 1);
    EXPECT_FALSE(faulted.items[2].status.isOk());
    EXPECT_EQ(faulted.items[2].status.code(), StatusCode::ExecFault);
    EXPECT_EQ(faulted.items[2].predicted, -1);
    for (size_t i = 0; i < faulted.items.size(); ++i) {
        if (i == 2)
            continue;
        // The healthy clouds complete bitwise identical to the
        // fault-free batch: one cloud's failure stays in its own item.
        EXPECT_TRUE(faulted.items[i].status.isOk()) << "item " << i;
        EXPECT_TRUE(bitwiseEqual(faulted.items[i].run.logits,
                                 healthy.items[i].run.logits))
            << "item " << i;
    }

    // Same contract in the sequential reference mode.
    core::BatchRunner sequential(exec, /*numThreads=*/1);
    core::BatchResult seq =
        sequential.run(poisoned, core::PipelineKind::Delayed, 7);
    EXPECT_EQ(seq.numFailed(), 1);
    EXPECT_FALSE(seq.items[2].status.isOk());
    for (size_t i = 0; i < seq.items.size(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(bitwiseEqual(seq.items[i].run.logits,
                                     healthy.items[i].run.logits));
        }
    }
}

} // namespace
} // namespace mesorasi::serve
