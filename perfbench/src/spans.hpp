/**
 * @file
 * Span recorder for the traced run: fixed-capacity storage reserved up
 * front, filled from the benchmark's own call sites (around execute,
 * from the afterStep hook, around submit, and per serving ticket), and
 * written out as Chrome trace-event JSON when the run ends.
 *
 * Recording never allocates: names are interned before the timed
 * window, and spans past the capacity are counted as dropped instead of
 * growing the buffer.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    int32_t name = -1;   ///< interned name id
    int32_t cat = -1;    ///< interned category id (the layer)
    int32_t parent = -1; ///< parent span index; -1 for a root
    int32_t tid = 0;     ///< display lane
    int64_t req = -1;    ///< request id shared by a request's spans
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(size_t capacity);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Intern @p s (call before the timed window; not thread-safe). */
    int32_t intern(const std::string &s);

    /** Claim a slot; -1 when full (the span is counted as dropped). */
    int32_t reserve();

    /** Fill slot @p idx (ignored when idx < 0). */
    void set(int32_t idx, const Span &span);

    /** Claim and fill in one call; returns the slot or -1. */
    int32_t record(const Span &span);

    size_t size() const;
    size_t dropped() const { return dropped_.load(); }

    /**
     * Self time per (category, name): each span's duration minus the
     * part of it its direct children cover (children of one parent do
     * not overlap here: steps run back to back on one thread).
     */
    std::map<std::string, int64_t> selfNsByName() const;

    /** Write Chrome trace-event JSON ("X" complete events, microsecond
     *  timestamps relative to the first span). Returns false when the
     *  file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::atomic<size_t> next_{0};
    std::atomic<size_t> dropped_{0};
    std::deque<std::string> names_;
    std::map<std::string, int32_t> ids_;
};

} // namespace perfbench
