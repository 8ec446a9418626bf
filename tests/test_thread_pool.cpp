/**
 * @file
 * Unit tests for ThreadPool: exception accounting of parallelFor and
 * the MESORASI_THREADS override parsed by defaultThreads(). The
 * override tests call defaultThreads() only and never build a pool, so
 * they start no threads whatever value they feed it.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace mesorasi {
namespace {

TEST(ParallelFor, CountsSuppressedExceptionsBeyondTheFirst)
{
    // When several chunks of one parallelFor throw, exactly one
    // exception reaches the caller; the rest must be accounted for —
    // not silently dropped (they were, before the counter existed).
    ThreadPool pool(4);
    ASSERT_EQ(pool.suppressedExceptionCount(), 0u);

    std::atomic<int> started{0};
    int64_t n = static_cast<int64_t>(pool.size()) * 4;
    try {
        pool.parallelFor(n, /*grain=*/1, [&](int64_t, int64_t) {
            started.fetch_add(1);
            throw UsageError("chunk failure");
        });
        FAIL() << "parallelFor swallowed every exception";
    } catch (const UsageError &) {
    }
    // Every chunk that ran threw; all but the rethrown first are
    // suppressed-and-counted. At least one chunk ran.
    EXPECT_EQ(pool.suppressedExceptionCount(),
              static_cast<uint64_t>(started.load()) - 1);

    // A clean loop afterwards leaves the count untouched.
    std::atomic<int64_t> sum{0};
    pool.parallelFor(n, /*grain=*/1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    EXPECT_EQ(pool.suppressedExceptionCount(),
              static_cast<uint64_t>(started.load()) - 1);
}

/** Set (or unset, for null) MESORASI_THREADS for one scope. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("MESORASI_THREADS"))
            saved_ = old;
        set(value);
    }
    ~ScopedThreadsEnv() { set(saved_ ? saved_->c_str() : nullptr); }
    ScopedThreadsEnv(const ScopedThreadsEnv &) = delete;
    ScopedThreadsEnv &operator=(const ScopedThreadsEnv &) = delete;

  private:
    static void
    set(const char *value)
    {
        if (value)
            setenv("MESORASI_THREADS", value, 1);
        else
            unsetenv("MESORASI_THREADS");
    }

    std::optional<std::string> saved_;
};

int32_t
hardwareThreads()
{
    ScopedThreadsEnv unset(nullptr);
    return ThreadPool::defaultThreads();
}

TEST(DefaultThreads, HonorsWholeIntegersInRange)
{
    for (const char *v : {"1", "3", "64", "1024"}) {
        ScopedThreadsEnv env(v);
        EXPECT_EQ(ThreadPool::defaultThreads(), std::atoi(v)) << v;
    }
}

TEST(DefaultThreads, FallsBackToHardwareOnAnythingElse)
{
    const int32_t hw = hardwareThreads();
    ASSERT_GE(hw, 1);
    unsigned reported = std::thread::hardware_concurrency();
    EXPECT_EQ(hw, reported > 0 ? static_cast<int32_t>(reported) : 1);
    // Prefixes of a valid count that differs from hw, so a parser that
    // takes the leading digits would return something else.
    const std::string other = std::to_string(hw + 1);
    for (const std::string &v :
         {other + "abc", other + ".5", other + " ", std::string("abc"),
          std::string(""), std::string("0"), std::string("-3"),
          std::string("1025"), std::string("4294967297"),
          std::string("99999999999999999999")}) {
        ScopedThreadsEnv env(v.c_str());
        EXPECT_EQ(ThreadPool::defaultThreads(), hw) << "'" << v << "'";
    }
}

} // namespace
} // namespace mesorasi
