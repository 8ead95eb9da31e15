#!/usr/bin/env python3
"""Entry point of the ccnopt benchmark. Run it from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

It builds perfbench/ (which compiles the libraries from src/) into
.bench_build/, then runs the benchmark binary with the given flags; the
binary checks them strictly. The last line of standard output is the
result object. --all runs every workload of BENCHMARK.json in turn.
Traced runs write their span file under .bench_out/.
--self-test runs every workload of BENCHMARK.json tiny, traced and
untraced, and checks each result line against BENCHMARK.json.
"""

import json
import math
import os
import re
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "ccnopt_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def communicate(child, timeout):
    """Waits for `child`; on timeout kills its whole process group (a build
    runs compilers under make) and waits for it. Returns (timed out,
    stdout)."""
    try:
        return False, child.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return True, None


def run_logged(command, log, timeout):
    """Runs `command` with its output appended to `log`; fails on error."""
    with open(log, "a") as out:
        with subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT,
                              start_new_session=True) as child:
            timed_out, _ = communicate(child, timeout)
        if timed_out:
            fail("timed out: " + " ".join(command))
        code = child.returncode
    if code != 0:
        with open(log) as text:
            sys.stderr.write("".join(text.readlines()[-40:]))
        fail("failed (see %s): %s" % (log, " ".join(command)))


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("%s not found: run from the root of a ccnopt checkout"
                 % required)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(len(os.sched_getaffinity(0)))
    run_logged(["cmake", "--build", BUILD, "--target", "ccnopt_perfbench",
                "-j", jobs], log, BUILD_TIMEOUT_S)


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    with subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        timed_out, stdout = communicate(child, RUN_TIMEOUT_S)
    if timed_out:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return child.returncode, stdout.splitlines()


def parse_result(lines):
    """The result object on the last line, or None when it is malformed."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def flag_value(args, name):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def benchmark(args):
    build()
    if flag_value(args, "--trace") == "1" and flag_value(args, "--span-out") is None:
        os.makedirs(OUT, exist_ok=True)
        tag = "%s-seed%s" % (flag_value(args, "--workload"),
                             flag_value(args, "--seed"))
        tag = re.sub(r"[^A-Za-z0-9_.-]", "_", tag)
        args = args + ["--span-out",
                       os.path.join(".bench_out", "spans-%s.json" % tag)]
    code, lines = run_binary(args)
    if code != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        print("run.py: benchmark exited with code %d" % code, file=sys.stderr)
        sys.exit(code)
    if parse_result(lines) is None:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("benchmark printed no result line")
    print("\n".join(lines), flush=True)


def self_test():
    """Tiny runs of every workload in both modes, checked against
    BENCHMARK.json: every metric present with its unit and a finite value,
    and no failed output check. Then malformed flags must be refused."""
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            what = "%s --trace %d" % (workload["name"], trace)
            args = ["--workload", workload["name"], "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            if trace:
                os.makedirs(OUT, exist_ok=True)
                args += ["--span-out",
                         os.path.join(".bench_out", "spans-self-test.json")]
            code, lines = run_binary(args)
            result = parse_result(lines) if code == 0 else None
            if result is None:
                problems.append("%s: exit %d, no result line" % (what, code))
                continue
            metrics = result["metrics"]
            units = {name: m.get("unit") for name, m in metrics.items()}
            if units != expected[trace]:
                problems.append("%s: metrics/units %s, expected %s"
                                % (what, units, expected[trace]))
            for name, m in metrics.items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s: %s = %r" % (what, name, value))
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append("%s: failed_ratio %s/%s"
                                % (what, result["failed"], result["attempted"]))
            print("%s: %d metrics, %d/%d checks failed"
                  % (what, len(metrics), result["failed"], result["attempted"]))
    base = ["--workload", "usa-paper-scale", "--seconds", "1", "--tiny"]
    for bad in (["--seed", "1", "--bogus", "1"], ["--seed", "12x"],
                ["--seed", "1", "--trace", "2"], ["--seed", "1", "--threads", "0"],
                ["--seed", "1", "stray"], []):
        code, lines = run_binary(base + bad)
        if code == 0 or parse_result(lines) is not None:
            problems.append("flags %s were accepted" % bad)
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return [w["name"] for w in json.load(spec_file)["workloads"]]


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        self_test()
    elif "--all" in args:
        args.remove("--all")
        for name in workload_names():
            print("== " + name, flush=True)
            benchmark(args + ["--workload", name])
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
