#include "core/batch_runner.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace mesorasi::core {

namespace {

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int32_t
argmaxFirstRow(const tensor::Tensor &logits)
{
    if (logits.empty())
        return -1;
    const float *row = logits.row(0);
    int32_t best = 0;
    for (int32_t c = 1; c < logits.cols(); ++c)
        if (row[c] > row[best])
            best = c;
    return best;
}

/** Fill the latency/percentile summary fields from the items. */
void
summarizeLatencies(BatchResult &out)
{
    std::vector<double> latencies;
    latencies.reserve(out.items.size());
    for (const auto &item : out.items)
        latencies.push_back(item.latencyMs);
    out.latency = summarize(latencies);
    out.p90LatencyMs =
        latencies.empty() ? 0.0 : percentile(latencies, 90.0);
}

} // namespace

double
predictionAgreement(const BatchResult &a, const BatchResult &b)
{
    MESO_REQUIRE(a.items.size() == b.items.size(),
                 "agreement over batches of " << a.items.size() << " vs "
                                              << b.items.size());
    if (a.items.empty())
        return 1.0;
    size_t same = 0;
    for (size_t i = 0; i < a.items.size(); ++i)
        if (a.items[i].predicted == b.items[i].predicted)
            ++same;
    return static_cast<double>(same) /
           static_cast<double>(a.items.size());
}

BatchRunner::BatchRunner(const NetworkExecutor &exec, int32_t numThreads)
    : exec_(exec)
{
    // Clamp the requested worker count to what the hardware can
    // actually run: oversubscribed cloud-level workers only time-slice
    // each other (batch16_parallel regressed below sequential on a
    // 1-hw-thread container). defaultThreads() honors MESORASI_THREADS,
    // so oversubscription remains reachable for tests via the env.
    if (numThreads > 1) {
        int32_t cap = std::max(1, ThreadPool::defaultThreads());
        numThreads = std::min(numThreads, cap);
    }
    if (numThreads == 1)
        sequential_ = true;
    else if (numThreads > 1)
        pool_ = std::make_unique<ThreadPool>(numThreads);
}

BatchRunner::~BatchRunner() = default;

int32_t
BatchRunner::numThreads() const
{
    if (sequential_)
        return 1;
    return pool_ ? pool_->size() : ThreadPool::global().size();
}

void
BatchRunner::forEachItem(size_t n,
                         const std::function<void(size_t)> &runItem) const
{
    if (sequential_) {
        // Truly serial reference: inner parallel loops (matmul, table
        // builders, aggregation) run inline too, so this measures the
        // one-thread execution the parallel mode is compared against.
        ThreadPool::ScopedForceInline serial;
        for (size_t i = 0; i < n; ++i)
            runItem(i);
        return;
    }
    // Cloud-level parallelism: one item per pool task; inner loops run
    // inline on workers (the pool's nesting rule), so results stay
    // bitwise identical to the serial walk of the same seeds.
    const ThreadPool &pool = pool_ ? *pool_ : ThreadPool::global();
    pool.parallelFor(static_cast<int64_t>(n), /*grain=*/1,
                     [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i)
                             runItem(static_cast<size_t>(i));
                     });
}

BatchResult
BatchRunner::run(const std::vector<geom::PointCloud> &clouds,
                 PipelineKind kind, uint64_t seedBase) const
{
    BatchResult out;
    out.kind = kind;
    out.items.resize(clouds.size());

    auto batch0 = std::chrono::steady_clock::now();
    forEachItem(clouds.size(), [&](size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        BatchItemResult &item = out.items[i];
        // Per-item isolation: a rejected cloud (NetworkExecutor::run's
        // front door) or a mid-run fault lands in this item's status.
        try {
            item.run = exec_.run(clouds[i], kind,
                                 seedBase + static_cast<uint64_t>(i));
            item.predicted = argmaxFirstRow(item.run.logits);
        } catch (...) {
            item.status = Status::fromCurrentException();
        }
        item.latencyMs = msSince(t0);
    });
    out.wallMs = msSince(batch0);
    summarizeLatencies(out);
    return out;
}

BatchResult
BatchRunner::run(const plan::CompiledEngine &engine,
                 const std::vector<geom::PointCloud> &clouds,
                 uint64_t seedBase, plan::ContextPool *ctxPool) const
{
    BatchResult out;
    out.kind = engine.pipeline();
    out.items.resize(clouds.size());

    plan::ContextPool localPool(engine);
    plan::ContextPool &contexts = ctxPool ? *ctxPool : localPool;

    auto batch0 = std::chrono::steady_clock::now();
    forEachItem(clouds.size(), [&](size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        BatchItemResult &item = out.items[i];
        // Per-item isolation: every failure (invalid cloud, context
        // allocation, injected fault, NaN logits) lands in this item's
        // status; the other items never see it. A fault poisons the
        // context mid-plan, and release() resets it, so the pool stays
        // serviceable.
        std::unique_ptr<plan::ExecutionContext> ctx;
        try {
            ctx = contexts.acquire();
        } catch (...) {
            item.status = Status::fromCurrentException();
            item.latencyMs = msSince(t0);
            return;
        }
        item.status = engine.tryExecute(
            clouds[i], seedBase + static_cast<uint64_t>(i), *ctx);
        if (item.status.isOk()) {
            // copy out before the ctx is recycled
            item.run.logits = ctx->logits();
            item.predicted = argmaxFirstRow(item.run.logits);
        }
        contexts.release(std::move(ctx));
        item.latencyMs = msSince(t0);
    });
    out.wallMs = msSince(batch0);
    summarizeLatencies(out);
    return out;
}

} // namespace mesorasi::core
