/**
 * @file
 * Host facts printed beside every result: usable cores, CPU model
 * (from cpuid, so no system file is read), the SIMD ISA and lane width
 * the kernels were built for, the compiler, and the process peak RSS.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** CPUs this process may run on (sched_getaffinity), at least 1. */
int usableCores();


/**
 * Moves the calling thread round the CPUs this process may run on, one
 * fixed time slice on each in turn. On a shared host each virtual CPU is
 * slowed at its own times by other tenants, for seconds to minutes; a
 * thread left on one CPU measures that CPU's contention, a thread that
 * visits every CPU evenly measures the host. The destructor restores the
 * original affinity.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(double sliceSeconds);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move to the next CPU once the current slice is over. Call it
     *  between timed operations, never inside one. */
    void tick();

    /** CPUs in the rotation. */
    int cpus() const { return static_cast<int>(cpus_.size()); }

  private:
    void moveTo(size_t i);

    std::vector<int> cpus_;
    size_t next_ = 0;
    int64_t sliceNs_;
    int64_t sliceEndNs_ = 0;
};

/** CPU brand string from cpuid leaves 0x80000002..4, or "unknown". */
std::string cpuModel();

/** ISA the library's SIMD kernels were compiled for (sse2, avx2, ...). */
std::string simdIsa();

/** Effective kernel lane width in floats. */
int simdWidth();

/** Compiler name and version. */
std::string compilerName();

/** Process peak resident set size in MiB (getrusage). */
double peakRssMb();

} // namespace perfbench
