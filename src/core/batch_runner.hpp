/**
 * @file
 * Batched network execution: many clouds through one NetworkExecutor.
 *
 * The production serving shape for the paper's workloads is a stream of
 * frames (LiDAR sweeps, depth maps) pushed through one trained network.
 * BatchRunner evaluates every cloud with its seed fixed by batch index —
 * through the reference NetworkExecutor or a CompiledEngine — either
 * serially or one cloud per pool task. Both overloads share one
 * per-item dispatch, and each item catches its own failure into its
 * Status, so a parallel batch is bitwise identical to the serial run of
 * the same seeds, which the test suite asserts.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "core/network.hpp"
#include "core/plan/engine.hpp"

namespace mesorasi::core {

/** One cloud's outcome within a batch. */
struct BatchItemResult
{
    /**
     * Per-item outcome: Ok when the cloud was evaluated, else the
     * typed failure (InvalidInput/ShapeMismatch for a rejected cloud,
     * ExecFault/NumericFault/... for a mid-plan fault). A failing item
     * never aborts the batch — the other items complete with results
     * bitwise identical to a fault-free run.
     */
    Status status;
    RunResult run;            ///< full inference result
    double latencyMs = 0.0;   ///< wall clock of this cloud's inference
    int32_t predicted = -1;   ///< argmax of the first logits row
};

/** Everything one batch execution produces. */
struct BatchResult
{
    PipelineKind kind = PipelineKind::Delayed;
    std::vector<BatchItemResult> items;
    Summary latency;      ///< per-cloud latency summary (ms)
    double p90LatencyMs = 0.0;
    double wallMs = 0.0;  ///< end-to-end wall clock for the batch

    /** Clouds per second over the batch wall clock. */
    double
    throughput() const
    {
        return wallMs > 0.0
                   ? static_cast<double>(items.size()) * 1000.0 / wallMs
                   : 0.0;
    }

    /** Items whose status is non-ok. */
    int32_t
    numFailed() const
    {
        int32_t n = 0;
        for (const auto &item : items)
            if (!item.status.isOk())
                ++n;
        return n;
    }
};

/** Fraction of items whose predicted class agrees between two batch
 *  results (e.g. delayed vs original on the same clouds). */
double predictionAgreement(const BatchResult &a, const BatchResult &b);

/**
 * Runs batches of clouds through a NetworkExecutor. The executor must
 * outlive the runner.
 */
class BatchRunner
{
  public:
    /**
     * @param exec       shared (immutable) network executor
     * @param numThreads cloud-level workers: 0 uses the process-global
     *                   pool, 1 forces fully serial execution (inner
     *                   parallelism disabled too — the single-thread
     *                   reference), >= 2 gives the runner a dedicated
     *                   pool of that size, clamped to the hardware
     *                   thread count (ThreadPool::defaultThreads) so a
     *                   large request never oversubscribes a small
     *                   machine into time-slicing. Set MESORASI_THREADS
     *                   to raise the clamp for oversubscription tests.
     */
    explicit BatchRunner(const NetworkExecutor &exec,
                         int32_t numThreads = 0);
    ~BatchRunner();

    /**
     * Execute every cloud under @p kind. Cloud i runs with seed
     * @p seedBase + i, so results are independent of scheduling and of
     * the thread count.
     *
     * Failure isolation: a cloud rejected by NetworkExecutor::run's
     * front door (InvalidInput / ShapeMismatch) or one whose execution
     * throws gets a typed item status; the rest of the batch completes
     * bitwise identical to a fault-free run.
     */
    BatchResult run(const std::vector<geom::PointCloud> &clouds,
                    PipelineKind kind, uint64_t seedBase = 1) const;

    /**
     * Engine-cached serving loop: evaluate every cloud through one
     * CompiledEngine (cloud i with seed @p seedBase + i, the same seeds
     * as the executor path, so predictions and logits match it bitwise).
     * The hot path does zero graph construction and zero shape
     * inference; evaluation contexts come from @p ctxPool when provided
     * — pass a pool owned by the caller to keep contexts warm across
     * batches and reps — else from a call-local pool. Items carry
     * logits and predictions only: the serving path skips
     * trace/NIT capture. The engine may come from
     * PlanCompiler::compile or from a loaded artifact
     * (core/plan/serialize.hpp) — both execute identically.
     *
     * Failure isolation: every item runs through tryExecute on its own
     * context, so one failing cloud (bad input, injected fault, NaN
     * logits) yields a typed item status while every other item
     * completes bitwise identical to a fault-free batch; a poisoned
     * context is reset on release so the pool stays serviceable.
     */
    BatchResult run(const plan::CompiledEngine &engine,
                    const std::vector<geom::PointCloud> &clouds,
                    uint64_t seedBase = 1,
                    plan::ContextPool *ctxPool = nullptr) const;

    /** Cloud-level worker count in effect. */
    int32_t numThreads() const;

  private:
    /** Run @p runItem(i) for every i in [0, n): serially under
     *  ScopedForceInline, or one item per pool task. @p runItem must
     *  catch its own failures. */
    void forEachItem(size_t n,
                     const std::function<void(size_t)> &runItem) const;

    const NetworkExecutor &exec_;
    std::unique_ptr<ThreadPool> pool_; ///< null: use the global pool
    bool sequential_ = false;
};

} // namespace mesorasi::core
