#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

bool
percentileAllowed(size_t n, double q)
{
    if (!(q > 0.0 && q < 1.0))
        return false;
    // Compare in whole samples: beyond = n * (1 - q), rounded to absorb
    // the binary representation of q (0.9 is not exact).
    const double beyond = static_cast<double>(n) * (1.0 - q);
    return std::llround(beyond * 1e6) >=
           std::llround(kMinBeyond * 1e6);
}

double
percentile(std::vector<double> samples, double q)
{
    if (!percentileAllowed(samples.size(), q))
        throw std::runtime_error(
            "percentile " + std::to_string(q) + " refused on " +
            std::to_string(samples.size()) +
            " samples: fewer than 10 lie beyond it");
    std::sort(samples.begin(), samples.end());
    // Nearest rank: the smallest sample with at least q*n samples at or
    // below it.
    const double rank = std::ceil(q * static_cast<double>(samples.size()) -
                                  1e-9);
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
}

double
highestAllowedPercentile(size_t n)
{
    double best = 0.0;
    for (double q : {0.5, 0.9, 0.99, 0.999})
        if (percentileAllowed(n, q))
            best = q;
    return best;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::runtime_error("median of no samples");
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::vector<double>
poissonDueTimes(uint64_t seed, double rate, double seconds)
{
    if (!(rate > 0.0) || !(seconds > 0.0))
        throw std::runtime_error("bad Poisson schedule");
    std::vector<double> due;
    due.reserve(static_cast<size_t>(rate * seconds * 1.5) + 16);
    uint64_t state = seed;
    double t = 0.0;
    for (;;) {
        state = mix64(state);
        // u in (0, 1]: 53 random mantissa bits, never exactly 0.
        const double u =
            (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
        t += -std::log(u) / rate;
        if (t >= seconds)
            break;
        due.push_back(t);
    }
    return due;
}

bool
validName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

void
Rollup::addExecute(const std::vector<StepMeta> &steps, int64_t startNs,
                   const int64_t *stepEndNs, int64_t endNs)
{
    int64_t prev = startNs;
    int64_t sum = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
        const int64_t d = stepEndNs[i] - prev;
        opNs[steps[i].op] += d;
        phaseNs[steps[i].phase] += d;
        moduleNs[steps[i].module] += d;
        sum += d;
        prev = stepEndNs[i];
    }
    stepsNs += sum;
    spanNs += endNs - startNs;
    selfNs += (endNs - startNs) - sum;
    ++executes;
}

bool
Rollup::accountsForSpan() const
{
    auto total = [](const std::map<std::string, int64_t> &m) {
        int64_t s = 0;
        for (const auto &kv : m)
            s += kv.second;
        return s;
    };
    return total(opNs) == stepsNs && total(phaseNs) == stepsNs &&
           total(moduleNs) == stepsNs && stepsNs + selfNs == spanNs;
}

} // namespace perfbench
