#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/simd.hpp"
#include "spans.hpp"

namespace perfbench {

int
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? n : 1;
}

CpuRotation::CpuRotation(double sliceSeconds)
    : sliceNs_(static_cast<int64_t>(sliceSeconds * 1e9))
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
    if (!cpus_.empty())
        moveTo(0);
}

CpuRotation::~CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_)
        CPU_SET(c, &set);
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof set, &set);
}

void
CpuRotation::moveTo(size_t i)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[i], &set);
    sched_setaffinity(0, sizeof set, &set);
    next_ = (i + 1) % cpus_.size();
    sliceEndNs_ = nowNs() + sliceNs_;
}

void
CpuRotation::tick()
{
    if (cpus_.size() > 1 && nowNs() >= sliceEndNs_)
        moveTo(next_);
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxLeaf = __get_cpuid_max(0x80000000u, nullptr);
    if (maxLeaf < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    const size_t e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
#else
    return "unknown";
#endif
}

std::string
simdIsa()
{
#if defined(MESORASI_SIMD_AVX2)
    return "avx2";
#elif defined(MESORASI_SIMD_SSE2)
    return "sse2";
#elif defined(MESORASI_SIMD_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

int
simdWidth()
{
    return mesorasi::simd::width();
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
