/**
 * @file
 * Self-tests of the benchmark's own helpers (helpers.hpp). Every run
 * executes them before measuring and refuses to report on failure;
 * `--selftest` runs them alone and prints each check.
 */
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/** Run every helper check; @p names (metric and workload names the
 *  benchmark emits) must all pass the name rule. Failures are written
 *  to @p log, and every check when @p verbose. Returns true when all
 *  checks pass. */
bool runSelfTests(std::ostream &log, const std::vector<std::string> &names,
                  bool verbose);

} // namespace perfbench
