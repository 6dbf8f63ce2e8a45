#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the runner (perfbench/CMakeLists.txt, Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build, at the repository root.
Then starts the runner once per pass, each time in a fresh process, until
one more start of median length would overrun --seconds. Every metric is
the median over those processes. The runner runs with address-space
randomization off where the kernel allows it (the fingerprint's "layout"
says whether it did): on a 4-core Xeon, layout alone moved one city pass
by +-10 % between processes, and by +-1.5 % with randomization off. A
code change still moves the layout, so differences of a few percent
between two builds may be layout, not code.

Prints the host fingerprint on one line and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. perfbench/NOTES.md describes the
workloads, the metrics and the output check.

Exit codes: 0 a result was printed (correct may still be false), 1 the
build or the runner failed, 2 bad usage.
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")
WORKLOADS = ("cell_mix", "city_serial", "city_parallel", "sift_signal")
# The seed whose output hashes perfbench/expected.json records.
DEFAULT_SEED = 1
# Every run must end within 180 s.
DEADLINE_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


class RunnerError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "whitefi_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write(f"error: build step failed: {' '.join(step)}\n")
            raise SystemExit(1)
    return os.path.join(out, "whitefi_perfbench")


def fixed_layout():
    """Asks for address-space randomization off in the runner about to be
    exec'd (the personality survives exec); the runner reports whether
    it took."""
    libc = ctypes.CDLL(None)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_once(command, log_path, timeout):
    """One runner process; returns its report."""
    # The auditor logs each violation on stderr; keep it out of the result.
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=log, text=True, timeout=timeout,
                                  preexec_fn=fixed_layout)
        except subprocess.TimeoutExpired:
            raise RunnerError(f"runner exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        raise RunnerError(f"runner exited {proc.returncode}")
    return json.loads(lines[-1])


def sample(command, log_path, seconds, started):
    """Starts the runner until one more start of median length would
    overrun `seconds`, and at least once; returns every report."""
    reports, walls = [], []
    first = time.monotonic()
    while not reports or (time.monotonic() - first
                          + statistics.median(walls) <= seconds):
        begin = time.monotonic()
        timeout = DEADLINE_S - (begin - started)
        if timeout <= 0:
            break
        reports.append(run_once(command, log_path, timeout))
        walls.append(time.monotonic() - begin)
    if not reports:
        raise RunnerError("no time left to run")
    return reports


def expected_key(workload, quick):
    # Both city workloads run one city; the worker count must not change
    # a single output, so they share one expected hash.
    name = "city" if workload.startswith("city_") else workload
    return ("quick/" if quick else "") + name


def check(reports, seed, expected):
    """Returns the output check's failures (empty when outputs are correct)."""
    problems = []
    first = reports[0]
    for report in reports:
        if not report["repeatable"]:
            problems.append("the traced pass's outputs differ from the "
                            "untraced pass's")
        for name, ok in report["coverage"].items():
            if not ok:
                problems.append(f"coverage: {name} did not happen")
        for key in ("hash", "attempted", "failed"):
            if report[key] != first[key]:
                problems.append(f"{key} differs between runner processes")
        # Counts are simulated outcomes: they must repeat exactly.
        for name, metric in report["metrics"].items():
            if (metric["unit"] == "count"
                    and metric != first["metrics"].get(name)):
                problems.append(f"{name} differs between runner processes")
    if seed == DEFAULT_SEED:
        key = expected_key(first["workload"], first["quick"])
        if first["hash"] != expected.get(key):
            problems.append(f"output hash {first['hash']} != expected "
                            f"{expected.get(key)} ({key})")
    if first["attempted"] < 1 or first["failed"] > first["attempted"]:
        problems.append("bad operation counts")
    return sorted(set(problems))


def metrics(reports, benchmark, trace):
    """The printed metrics: every end_to_end (trace 0) or per_layer
    (trace 1) metric of BENCHMARK.json, with its unit, each the median
    over the runner processes."""
    measured = {}
    for name, metric in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        measured[name] = {"value": statistics.median(values),
                          "unit": metric["unit"]}
    attempted, failed = reports[0]["attempted"], reports[0]["failed"]
    if not trace:
        measured["ok_share"] = {"value": (attempted - failed) / attempted,
                                "unit": "ratio"}
    out = {}
    for metric in benchmark["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        # A layer the workload does not load did no work: its metrics are 0.
        entry = measured.pop(name, {"value": 0, "unit": unit})
        if entry["unit"] != unit:
            raise SystemExit(f"error: {name} measured in {entry['unit']}, "
                             f"BENCHMARK.json says {unit}")
        out[name] = {"value": entry["value"], "unit": unit}
    if measured:
        raise SystemExit("error: metrics missing from BENCHMARK.json: "
                         + ", ".join(sorted(measured)))
    return out


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long inputs (the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    runner = build()
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    with open(EXPECTED) as f:
        expected = json.load(f)

    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if args.trace:
        command += ["--spans", os.path.join(build_dir(),
                                            f"spans-{args.workload}.json")]
    log_path = os.path.join(build_dir(), f"runner-{args.workload}.log")
    try:
        reports = sample(command, log_path, args.seconds, started)
    except RunnerError as error:
        sys.stderr.write(f"error: {error}\n")
        return 1

    problems = check(reports, args.seed, expected)
    for problem in problems:
        sys.stderr.write(f"output check: {problem}\n")
    result = {
        "correct": not problems,
        "attempted": reports[0]["attempted"],
        "failed": reports[0]["failed"],
        "metrics": metrics(reports, benchmark, args.trace),
    }
    print("host " + json.dumps(dict(reports[0]["host"],
                                    processes=len(reports)), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
