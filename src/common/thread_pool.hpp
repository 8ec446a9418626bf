/**
 * @file
 * Fixed-size worker pool with a blocking parallel-for.
 *
 * All host-side parallelism in the library goes through this pool:
 * per-centroid neighbor queries, batched MLP rows, per-centroid
 * aggregation, and cloud-level batching (core::BatchRunner). The pool is
 * deliberately simple — contiguous index ranges, caller blocks until the
 * loop finishes — because every parallelized loop writes disjoint rows
 * and the results must stay bitwise identical to the serial execution.
 *
 * Nested parallelism is safe: a parallelFor issued from inside a pool
 * task (any pool's task) runs inline on the calling thread, so outer
 * cloud-level parallelism automatically serializes the inner loops
 * instead of deadlocking or oversubscribing.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace mesorasi {

class ThreadPool
{
  public:
    /** Range task: processes indices [begin, end). */
    using RangeFn = std::function<void(int64_t begin, int64_t end)>;

    /** @param numThreads worker count; 0 picks defaultThreads(). A pool
     *  of size 1 runs everything inline on the caller. */
    explicit ThreadPool(int32_t numThreads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (>= 1). */
    int32_t size() const;

    /**
     * Run @p fn over [0, n) split into contiguous chunks of at least
     * @p grain indices, blocking until every chunk finished. Runs inline
     * when the loop is small, the pool has one thread, or the caller is
     * itself a pool worker. The first exception thrown by any chunk is
     * rethrown on the caller.
     */
    void parallelFor(int64_t n, int64_t grain, const RangeFn &fn) const;

    /**
     * parallelFor for capturing lambdas: skips the std::function
     * wrapper when the loop runs inline, because the wrapper's heap
     * allocation would break the zero-allocation contract of the hot
     * serving paths (compiled-plan steps, fused kernels) on forced-
     * inline / single-thread executions. The dispatched (pool) path is
     * unchanged.
     */
    template <class Fn>
    void
    parallelFor(int64_t n, int64_t grain, const Fn &fn) const
    {
        if (willRunInline(n, grain)) {
            if (n > 0)
                fn(static_cast<int64_t>(0), n);
            return;
        }
        parallelFor(n, grain, RangeFn(fn));
    }

    /** parallelFor with a default grain of 1. */
    void parallelFor(int64_t n, const RangeFn &fn) const
    {
        parallelFor(n, 1, fn);
    }

    /** True when a parallelFor of this shape runs inline on the caller
     *  (no workers, nested inside a pool task, or n <= grain). Throws
     *  on a non-positive grain, like parallelFor. */
    bool willRunInline(int64_t n, int64_t grain) const;

    /**
     * Worker exceptions suppressed over this pool's lifetime. When
     * several chunks of one parallelFor throw, only the first
     * exception is rethrown to the caller; every further one is
     * counted here and its message logged to stderr, so multi-item
     * faults stay diagnosable instead of vanishing silently.
     */
    uint64_t suppressedExceptionCount() const;

    /** Process-wide shared pool, sized by defaultThreads(). */
    static ThreadPool &global();

    /**
     * MESORASI_THREADS env override, else hardware concurrency. The
     * override must be a whole integer in [1, 1024]; anything else
     * (trailing garbage, zero, negative, out of range) falls back to
     * hardware concurrency with one stderr line.
     */
    static int32_t defaultThreads();

    /** True while the calling thread is executing a pool task (of any
     *  ThreadPool instance). */
    static bool insideWorker();

    /**
     * RAII guard that makes every parallelFor on the current thread run
     * inline for its lifetime, as if the thread were a pool worker.
     * Used to build truly serial reference executions (benchmark
     * baselines, the sequential mode of core::BatchRunner).
     */
    class ScopedForceInline
    {
      public:
        ScopedForceInline();
        ~ScopedForceInline();
        ScopedForceInline(const ScopedForceInline &) = delete;
        ScopedForceInline &operator=(const ScopedForceInline &) = delete;

      private:
        bool prev_;
    };

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace mesorasi
