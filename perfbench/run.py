#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first run configures and builds
the mesorasi library and the perfbench program (CMake, Release) into
.bench_build/perfbench; later runs rebuild incrementally. Build output
goes to stderr. The program's stdout is passed through; its last line is
the result JSON, whose metric names must be exactly the ones
BENCHMARK.json declares for the trace mode (end_to_end for --trace 0,
per_layer for --trace 1). Traced runs write a Chrome trace-event file to
.bench_build/perfbench/traces/.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def build(root, build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], stdout=sys.stderr, check=True)


def check_result(root, args, last_line):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    key = "per_layer" if flag(args, "--trace") == "1" else "end_to_end"
    want = [m["name"] for m in spec[key]]
    got = json.loads(last_line)
    if sorted(got) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are " + ", ".join(sorted(got))
    if list(got["metrics"]) != want:
        return "metrics %s do not match BENCHMARK.json %s" % (
            list(got["metrics"]), want)
    return None


def main():
    args = sys.argv[1:]
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        return fail("no mesorasi sources beside perfbench/ "
                    "(need CMakeLists.txt and src/)", 2)
    build_dir = root / ".bench_build" / "perfbench"
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    cmd = [str(build_dir / "perfbench")] + args
    if "--selftest" not in args:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload"),
                                   flag(args, "--seed"))
        cmd += ["--trace-out", str(traces / name)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or "--selftest" in args:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    try:
        problem = check_result(root, args, lines[-1])
    except (OSError, ValueError, KeyError) as e:
        problem = "unreadable result or BENCHMARK.json: %s" % e
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(problem)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
