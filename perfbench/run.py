#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload prompt_mix --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 30
  python3 perfbench/run.py --selftest

One workload: builds the server libraries and the driver from source into
$CARGO_TARGET_DIR (default .bench_build), runs the driver and passes its
output through; the last line is the result JSON. --trace 1 reports the
per-layer metrics and writes spans to <build dir>/spans/<workload>.jsonl.

--workload all runs every workload BENCHMARK.json declares, untraced and
traced, prints their lines and a summary with the tracing overhead (traced
minus untraced), and exits non-zero if any output check failed. --selftest runs the benchmark's own
tests, then checks that every metric name the driver prints is declared in
BENCHMARK.json with the printed unit.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Every workload the driver can run (all declared in BENCHMARK.json).
WORKLOADS = ["prompt_mix", "control_rtt"]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# Time a run may take past --seconds (set-ups, checks, tick timing) before
# it is stopped as failed.
RUN_GRACE_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: configure failed")
        return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(out, target)


def source_revision():
    """The commit when the checkout is a git work tree, else a digest of the
    benchmarked sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_driver(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--commit", source_revision()]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in time" % workload)
        return 1, []
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
        sys.stdout.flush()
    return proc.returncode, lines


def parse_result(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def declared_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_all(binary, seed, seconds):
    failed = False
    summary = []
    for workload in declared_workloads():
        code_plain, plain = run_driver(binary, workload, seed, seconds, False)
        code_traced, traced = run_driver(binary, workload, seed, seconds, True)
        failed |= code_plain != 0 or code_traced != 0
        untraced = parse_result(plain) or {"metrics": {}}
        e2e_traced = {}
        for line in traced:
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "e2e":
                e2e_traced[parts[1]] = float(parts[2])
        for name, m in untraced["metrics"].items():
            if name in e2e_traced and m["value"]:
                summary.append("%-13s %-16s untraced %14.4f traced %14.4f overhead %+7.2f%%" % (
                    workload, name, m["value"], e2e_traced[name],
                    100.0 * (e2e_traced[name] - m["value"]) / m["value"]))
    print("tracing overhead (traced minus untraced, per end-to-end metric):")
    for line in summary:
        print(line)
    return 1 if failed else 0


def selftest(seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            assert NAME_RE.match(m["name"]), m["name"]
            assert m["better"] in ("higher", "lower"), m
            declared[m["name"]] = (kind, m["unit"])
    tests = build("perfbench_selftest")
    binary = build("perfbench")
    if tests is None or binary is None:
        return 1
    if subprocess.run([tests]).returncode != 0:
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run_driver(binary, workload, 1, seconds, trace, echo=False)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s trace=%d: run failed" % (workload, trace))
                continue
            kind = "per_layer" if trace else "end_to_end"
            want = {n for n, (k, _) in declared.items() if k == kind}
            if set(result["metrics"]) != want:
                problems.append("%s trace=%d: metrics %s differ from BENCHMARK.json %s" % (
                    workload, trace, sorted(set(result["metrics"]) ^ want), kind))
            for name, m in result["metrics"].items():
                if name in declared and declared[name][1] != m["unit"]:
                    problems.append("%s: unit %s, declared %s" % (name, m["unit"],
                                                                   declared[name][1]))
            for line in lines:
                parts = line.split()
                if len(parts) >= 4 and parts[0] in ("e2e", "layer"):
                    name, unit = parts[1], parts[3]
                    if not NAME_RE.match(name):
                        problems.append("bad metric name %r" % name)
                    elif name not in declared:
                        problems.append("%s prints undeclared metric %s" % (workload, name))
                    elif declared[name][1] != unit:
                        problems.append("%s: printed unit %s, declared %s" % (
                            name, unit, declared[name][1]))
    for p in sorted(set(problems)):
        log("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest(min(args.seconds, 2))
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        return 1
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_driver(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
