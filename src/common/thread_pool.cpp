#include "common/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injection.hpp"

namespace mesorasi {

namespace {

thread_local bool tls_inside_worker = false;

/** Log a suppressed worker exception's message (fprintf: atomic per
 *  call, so concurrent workers cannot interleave partial lines). */
void
logSuppressed(const std::exception_ptr &err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "[mesorasi] thread pool suppressed worker "
                     "exception: %s\n",
                     e.what());
    } catch (...) {
        std::fprintf(stderr, "[mesorasi] thread pool suppressed a "
                             "non-std worker exception\n");
    }
}

} // namespace

struct ThreadPool::Impl
{
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> tasks;
    mutable std::mutex mutex;
    std::condition_variable wake;
    bool stopping = false;
    /** Worker exceptions beyond the first of a parallelFor; see
     *  ThreadPool::suppressedExceptionCount(). */
    std::atomic<uint64_t> suppressed{0};

    void
    workerLoop()
    {
        tls_inside_worker = true;
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex);
                wake.wait(lock,
                          [&] { return stopping || !tasks.empty(); });
                if (stopping && tasks.empty())
                    return;
                task = std::move(tasks.front());
                tasks.pop_front();
            }
            task();
        }
    }
};

ThreadPool::ThreadPool(int32_t numThreads) : impl_(std::make_unique<Impl>())
{
    int32_t n = numThreads > 0 ? numThreads : defaultThreads();
    // A single-thread pool runs everything inline; no workers needed.
    if (n <= 1)
        return;
    impl_->workers.reserve(n);
    for (int32_t i = 0; i < n; ++i)
        impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->wake.notify_all();
    for (auto &w : impl_->workers)
        w.join();
}

int32_t
ThreadPool::size() const
{
    return std::max<int32_t>(1,
                             static_cast<int32_t>(impl_->workers.size()));
}

bool
ThreadPool::willRunInline(int64_t n, int64_t grain) const
{
    MESO_REQUIRE(grain > 0, "grain must be positive, got " << grain);
    // Inline when parallelism cannot help (or would self-deadlock: a
    // worker blocking on its own pool's queue).
    return impl_->workers.empty() || tls_inside_worker || n <= grain;
}

void
ThreadPool::parallelFor(int64_t n, int64_t grain, const RangeFn &fn) const
{
    if (n <= 0)
        return;
    if (willRunInline(n, grain)) {
        fn(0, n);
        return;
    }

    int64_t max_chunks = static_cast<int64_t>(impl_->workers.size()) * 4;
    int64_t chunks = std::min<int64_t>((n + grain - 1) / grain, max_chunks);
    int64_t per = (n + chunks - 1) / chunks;
    chunks = (n + per - 1) / per; // recompute so no chunk is empty

    struct Shared
    {
        std::mutex mutex;
        std::condition_variable done;
        int64_t remaining = 0;
        std::exception_ptr error;
    } shared;
    shared.remaining = chunks;

    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        for (int64_t c = 0; c < chunks; ++c) {
            int64_t begin = c * per;
            int64_t end = std::min<int64_t>(n, begin + per);
            impl_->tasks.emplace_back([this, &fn, &shared, begin, end] {
                std::exception_ptr err;
                try {
                    fault::maybeThrow(fault::kThreadPoolTask,
                                      StatusCode::ExecFault);
                    fn(begin, end);
                } catch (...) {
                    err = std::current_exception();
                }
                if (err) {
                    bool first;
                    {
                        std::lock_guard<std::mutex> g(shared.mutex);
                        first = !shared.error;
                        if (first)
                            shared.error = err;
                    }
                    // Only the first exception reaches the caller; the
                    // rest are counted and logged so multi-chunk
                    // faults stay diagnosable. Do this before the
                    // final decrement: once remaining hits 0 the
                    // caller may destroy `shared`.
                    if (!first) {
                        impl_->suppressed.fetch_add(
                            1, std::memory_order_relaxed);
                        logSuppressed(err);
                    }
                }
                std::lock_guard<std::mutex> g(shared.mutex);
                if (--shared.remaining == 0)
                    shared.done.notify_one();
            });
        }
    }
    impl_->wake.notify_all();

    std::unique_lock<std::mutex> lock(shared.mutex);
    shared.done.wait(lock, [&] { return shared.remaining == 0; });
    if (shared.error)
        std::rethrow_exception(shared.error);
}

uint64_t
ThreadPool::suppressedExceptionCount() const
{
    return impl_->suppressed.load(std::memory_order_relaxed);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

int32_t
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    int32_t fallback = hw > 0 ? static_cast<int32_t>(hw) : 1;
    const char *env = std::getenv("MESORASI_THREADS");
    if (!env)
        return fallback;
    // The whole string must be one integer in range: strtol alone
    // would take "4abc" as 4 and let a huge value narrow to int32.
    constexpr long kMaxEnvThreads = 1024;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0 && v >= 1 &&
        v <= kMaxEnvThreads)
        return static_cast<int32_t>(v);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        std::fprintf(stderr,
                     "[mesorasi] ignoring MESORASI_THREADS='%s' (want an "
                     "integer in [1, %ld]); using %d threads\n",
                     env, kMaxEnvThreads, fallback);
    return fallback;
}

bool
ThreadPool::insideWorker()
{
    return tls_inside_worker;
}

ThreadPool::ScopedForceInline::ScopedForceInline()
    : prev_(tls_inside_worker)
{
    tls_inside_worker = true;
}

ThreadPool::ScopedForceInline::~ScopedForceInline()
{
    tls_inside_worker = prev_;
}

} // namespace mesorasi
