#include "selftest.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "helpers.hpp"

namespace perfbench {

namespace {

struct Checker
{
    std::ostream &log;
    bool verbose;
    int failures = 0;

    void
    operator()(bool ok, const std::string &what)
    {
        if (!ok)
            ++failures;
        if (!ok || verbose)
            log << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    }
};

bool
throws(const std::vector<double> &v, double q)
{
    try {
        percentile(v, q);
    } catch (const std::runtime_error &) {
        return true;
    }
    return false;
}

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // reversed: percentile sorts
    return v;
}

void
testPercentileLadder(Checker &check)
{
    check(!percentileAllowed(99, 0.9), "p90 refused on 99 samples");
    check(percentileAllowed(100, 0.9), "p90 allowed on 100 samples");
    check(throws(iota(99), 0.9), "percentile(p90) throws on 99 samples");
    check(!percentileAllowed(19, 0.5) && percentileAllowed(20, 0.5),
          "p50 needs 20 samples");
    check(!percentileAllowed(999, 0.99) && percentileAllowed(1000, 0.99),
          "p99 needs 1000 samples");
    check(highestAllowedPercentile(19) == 0.0 &&
              highestAllowedPercentile(100) == 0.9 &&
              highestAllowedPercentile(999) == 0.9 &&
              highestAllowedPercentile(1000) == 0.99,
          "highest allowed ladder percentile");
    check(percentile(iota(100), 0.9) == 90.0 &&
              percentile(iota(100), 0.5) == 50.0,
          "nearest-rank values on 1..100");
    check(median({3.0, 1.0, 2.0}) == 2.0 &&
              median({4.0, 1.0, 2.0, 3.0}) == 2.5,
          "median of odd and even sizes");
}

void
testPoisson(Checker &check)
{
    const std::vector<double> a = poissonDueTimes(42, 40.0, 10.0);
    const std::vector<double> b = poissonDueTimes(42, 40.0, 10.0);
    const std::vector<double> c = poissonDueTimes(43, 40.0, 10.0);
    check(a == b, "same seed gives the same due times");
    check(a != c, "another seed gives other due times");
    bool ordered = !a.empty() && a.front() > 0.0 && a.back() < 10.0;
    for (size_t i = 1; i < a.size(); ++i)
        ordered = ordered && a[i] > a[i - 1];
    check(ordered, "due times increase inside the window");
    const std::vector<double> big = poissonDueTimes(7, 100.0, 100.0);
    const double n = static_cast<double>(big.size());
    check(std::fabs(n - 10000.0) < 400.0,
          "arrival count matches the rate (within 4 sigma)");
}

void
testNames(Checker &check, const std::vector<std::string> &names)
{
    check(validName("plan.phase.search_ms") && validName("pnpp-c-delayed") &&
              validName("nn.gemm.gmacs"),
          "name rule accepts metric and workload names");
    check(!validName("") && !validName(".hidden") &&
              !validName("bad name") && !validName("a/b") &&
              !validName(std::string(65, 'a')),
          "name rule refuses empty, leading dot, space, slash, >64");
    for (const std::string &n : names)
        check(validName(n), "emitted name '" + n + "'");
}

void
testRollup(Checker &check)
{
    const std::vector<StepMeta> steps = {
        {"materialize_cloud", "epilogue", "net"},
        {"search_nit", "search", "sa1"},
        {"mlp", "feature", "sa1"},
        {"gather_max", "aggregate", "sa1"},
        {"mlp", "feature", "head"},
    };
    const int64_t ends[] = {1010, 1300, 1900, 1950, 2000};
    Rollup r;
    r.addExecute(steps, 1000, ends, 2007);
    r.addExecute(steps, 1000, ends, 2000);
    check(r.executes == 2 && r.spanNs == 2007 - 1000 + 2000 - 1000,
          "execute spans summed");
    check(r.opNs.at("mlp") == 2 * (600 + 50) &&
              r.opNs.at("search_nit") == 2 * 290,
          "op roll-up sums step spans by op kind");
    check(r.phaseNs.at("feature") == 2 * 650 &&
              r.moduleNs.at("sa1") == 2 * (290 + 600 + 50),
          "phase and module roll-ups");
    check(r.selfNs == 7 && r.stepsNs == 2 * 1000,
          "self time is the span minus its steps");
    check(r.accountsForSpan(), "op roll-up plus self time is the span");
    Rollup broken = r;
    broken.opNs["mlp"] += 1;
    check(!broken.accountsForSpan(), "accounting detects a lost step");
}

} // namespace

bool
runSelfTests(std::ostream &log, const std::vector<std::string> &names,
             bool verbose)
{
    Checker check{log, verbose};
    testPercentileLadder(check);
    testPoisson(check);
    testNames(check, names);
    testRollup(check);
    if (verbose || check.failures > 0)
        log << "self-tests: " << check.failures << " failure(s)\n";
    return check.failures == 0;
}

} // namespace perfbench
