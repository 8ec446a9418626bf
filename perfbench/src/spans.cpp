#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

SpanRecorder::SpanRecorder(size_t capacity) : spans_(capacity) {}

int32_t
SpanRecorder::intern(const std::string &s)
{
    auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    names_.push_back(s);
    const int32_t id = static_cast<int32_t>(names_.size()) - 1;
    ids_.emplace(s, id);
    return id;
}

int32_t
SpanRecorder::reserve()
{
    const size_t idx = next_.fetch_add(1);
    if (idx >= spans_.size()) {
        dropped_.fetch_add(1);
        return -1;
    }
    return static_cast<int32_t>(idx);
}

void
SpanRecorder::set(int32_t idx, const Span &span)
{
    if (idx >= 0)
        spans_[static_cast<size_t>(idx)] = span;
}

int32_t
SpanRecorder::record(const Span &span)
{
    const int32_t idx = reserve();
    set(idx, span);
    return idx;
}

size_t
SpanRecorder::size() const
{
    return std::min(next_.load(), spans_.size());
}

std::map<std::string, int64_t>
SpanRecorder::selfNsByName() const
{
    const size_t n = size();
    std::vector<int64_t> childNs(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < n)
            childNs[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        if (s.name < 0)
            continue;
        out[names_[static_cast<size_t>(s.cat)] + "/" +
            names_[static_cast<size_t>(s.name)]] +=
            (s.endNs - s.startNs) - childNs[i];
    }
    return out;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const size_t n = size();
    int64_t t0 = 0;
    bool first = true;
    for (size_t i = 0; i < n; ++i)
        if (spans_[i].name >= 0 && (first || spans_[i].startNs < t0)) {
            t0 = spans_[i].startNs;
            first = false;
        }
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool sep = false;
    char buf[64];
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        if (s.name < 0)
            continue;
        os << (sep ? ",\n" : "\n");
        sep = true;
        os << "{\"name\":\""
           << jsonEscape(names_[static_cast<size_t>(s.name)])
           << "\",\"cat\":\""
           << jsonEscape(names_[static_cast<size_t>(s.cat)])
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid;
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.startNs - t0) / 1e3);
        os << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        os << ",\"dur\":" << buf << ",\"args\":{\"span\":" << i
           << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
