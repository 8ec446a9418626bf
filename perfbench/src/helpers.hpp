/**
 * @file
 * Pure helpers of the repo benchmark: percentiles under the
 * ten-samples-beyond rule, seeded Poisson due times, the
 * metric/workload name rule, and the roll-up of one traced execute
 * into per-op / per-phase / per-module time.
 *
 * Everything here is deterministic and free of I/O so selftest.cpp can
 * pin it down exactly.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Samples needed beyond a percentile before it may be reported. */
constexpr double kMinBeyond = 10.0;

/** True when @p q (0 < q < 1) of @p n samples leaves at least
 *  kMinBeyond samples beyond it: p50 needs 20, p90 100, p99 1000. */
bool percentileAllowed(size_t n, double q);

/** Nearest-rank percentile of @p samples. Throws std::runtime_error
 *  when percentileAllowed(samples.size(), q) is false. */
double percentile(std::vector<double> samples, double q);

/** Highest entry of {0.5, 0.9, 0.99, 0.999} that @p n samples allow;
 *  0 when not even the median is allowed. */
double highestAllowedPercentile(size_t n);

/** Plain median (mean of the middle pair for even sizes); used for
 *  small repeated measurements such as set-up time. Requires a
 *  non-empty input. */
double median(std::vector<double> samples);

/**
 * Due times (seconds from the window start) of a Poisson arrival
 * process of @p rate per second over [0, @p seconds), drawn from a
 * splitmix64 stream seeded with @p seed. The same seed always gives
 * the same schedule, on every platform (inverse-CDF sampling; no
 * library distribution is involved).
 */
std::vector<double> poissonDueTimes(uint64_t seed, double rate,
                                    double seconds);

/** splitmix64 mixing step (seed derivation for phases/requests). */
uint64_t mix64(uint64_t x);

/** Name rule for metrics and workloads: 1 to 64 characters of
 *  [A-Za-z0-9_.-], starting with a letter or a digit. */
bool validName(const std::string &name);

/** Static facts about one compiled step, for the roll-up. */
struct StepMeta
{
    std::string op;     ///< opKindName of the step descriptor
    std::string phase;  ///< stageKindName of StepIR::kind
    std::string module; ///< step-name prefix before the first '.'
};

/** Time of traced executes attributed to ops, phases and modules. All
 *  times are integer nanoseconds, so the accounting is exact. */
struct Rollup
{
    std::map<std::string, int64_t> opNs;
    std::map<std::string, int64_t> phaseNs;
    std::map<std::string, int64_t> moduleNs;
    int64_t stepsNs = 0; ///< sum of step spans
    int64_t selfNs = 0;  ///< execute spans minus their step spans
    int64_t spanNs = 0;  ///< sum of execute spans
    int64_t executes = 0;

    /** Account one execute: it started at @p startNs, step i ended at
     *  @p stepEndNs[i] (step i spans from the previous step's end, or
     *  the call start, to its own end), and the call returned at
     *  @p endNs. */
    void addExecute(const std::vector<StepMeta> &steps, int64_t startNs,
                    const int64_t *stepEndNs, int64_t endNs);

    /** True when each of the op, phase and module sums equals stepsNs
     *  and stepsNs + selfNs equals spanNs. */
    bool accountsForSpan() const;
};

} // namespace perfbench
