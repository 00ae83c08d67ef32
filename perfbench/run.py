#!/usr/bin/env python3
"""End-to-end benchmark of the ltnc library.

Builds perfbench/ (which compiles the library from the enclosing checkout)
into .bench_build/, runs one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. Untraced runs report the end_to_end metrics of BENCHMARK.json,
traced runs (--trace 1) its per_layer metrics.

    python3 perfbench/run.py --workload udp_swarm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test          # the benchmark's own test
    python3 perfbench/run.py --seed-spread 6      # count ranges over seeds 1..6

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ltnc_perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ("udp_swarm", "gossip_ltnc", "udp_stream")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Exits 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append((["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 120))
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append((["cmake", "--build", BUILD_DIR, "-j", jobs], 660))
    for cmd, timeout in steps:
        # Build output goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
        if proc.returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


def run_binary(args, timeout):
    """Runs the benchmark binary; returns (exit code, parsed result or None, stderr)."""
    proc = subprocess.run([BINARY] + args, capture_output=True, text=True, timeout=timeout)
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(spec, result, trace):
    """The contract line: every metric of the selected class, nothing else.

    A per-layer metric the workload did not measure (a layer it never
    calls) reads 0; a metric the binary measured but BENCHMARK.json does
    not name is an error, as is a unit mismatch or a non-finite value.
    """
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(result["metrics"]) - known)
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and trace:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"perfbench: metric {m['name']} missing or malformed: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main_run(args):
    spec = load_spec()
    build()
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        flags += ["--spans", os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.tsv")]
    code, result, err = run_binary(flags, timeout=args.seconds + 120)
    if code != 0 or result is None:
        sys.stderr.write(err)
        log(f"perfbench: {args.workload} failed with exit code {code}")
        return code or 1
    # The full record (every metric, repetition counts, tail percentile)
    # precedes the contract line.
    print(json.dumps(result))
    print(json.dumps(report(spec, result, args.trace)))
    return 0


# --- the benchmark's own test ----------------------------------------------

def short_run(workload, seed, trace, extra=()):
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", "1" if trace else "0", "--short", *extra]
    return run_binary(flags, timeout=170)


def count_metrics(result):
    """The exact counts of a run: identical for one seed on any host."""
    return {n: result["metrics"][n]["value"] for n in result["counts"]}


def self_test():
    spec = load_spec()
    build()
    failures = []
    for workload in WORKLOADS:
        runs = []
        for trace in (False, True):
            code, result, err = short_run(workload, 7, trace)
            if code != 0:
                failures.append(f"{workload}: short run exited {code}: {err.strip()}")
                continue
            try:
                line = report(spec, result, trace)
            except SystemExit as e:
                failures.append(f"{workload}: {e}")
                continue
            # Every named metric once, with its unit and a finite value.
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            if sorted(line["metrics"]) != sorted(m["name"] for m in wanted):
                failures.append(f"{workload}: metric set differs from BENCHMARK.json")
            if line["metrics"].get("delivered_ratio", {"value": 1.0})["value"] != 1.0:
                failures.append(f"{workload}: delivered_ratio below 1 on a correct run")
            runs.append(result)
        # Counts repeat exactly across two runs with one seed.
        if len(runs) == 2:
            a, b = count_metrics(runs[0]), count_metrics(runs[1])
            changed = [n for n in a if a[n] != b[n]]
            if changed:
                failures.append(f"{workload}: counts differ between runs: {changed}")
        # Verifying against a wrong content seed lowers delivered_ratio and
        # fails the run without a result.
        code, result, err = short_run(workload, 7, False, ("--verify-seed-offset", "1"))
        diag = None
        for line in err.splitlines():
            if line.startswith("{"):
                diag = json.loads(line)
        if code == 0 or result is not None:
            failures.append(f"{workload}: wrong-seed run did not fail")
        elif diag is None or not diag["delivered_ratio"] < 1.0:
            failures.append(f"{workload}: wrong-seed run did not lower delivered_ratio: {err}")
        log(f"self-test {workload}: {'ok' if not any(f.startswith(workload) for f in failures) else 'FAILED'}")
    for f in failures:
        log("FAIL", f)
    print(json.dumps({"self_test": "fail" if failures else "ok", "failures": failures}))
    return 1 if failures else 0


def seed_spread(seeds):
    """Prints each count metric's range over seeds 1..N (short runs)."""
    build()
    table = {}
    for workload in WORKLOADS:
        values = {}
        for seed in range(1, seeds + 1):
            code, result, err = short_run(workload, seed, True)
            if code != 0:
                log(err)
                return code
            for name, value in count_metrics(result).items():
                values.setdefault(name, []).append(value)
        table[workload] = {n: [min(v), max(v)] for n, v in values.items()}
    print(json.dumps({"seeds": seeds, "ranges": table}, indent=1))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed-spread", type=int, metavar="N")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.seed_spread:
        return seed_spread(args.seed_spread)
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
