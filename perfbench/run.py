#!/usr/bin/env python3
"""Build and run the Soteria benchmark from the repository root.

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload scan-cold --steadiness 5

The first form builds perfbench/ (the library sources in src/ plus the
benchmark binary) into .bench_build/ if needed, runs one workload, and
passes the binary's output through: a table of every metric with unit
and sample count, a provenance line, and last one JSON line with the
keys correct / attempted / failed / metrics. The second form repeats a
workload with seeds seed, seed+1, ... and prints each metric's median,
quartiles and spread against its bound in BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("scan-cold", "serve-replay", "scan-large")


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, ".bench_build")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Soteria sources (src/) are not next to perfbench/", 2)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--parallel", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "soteria_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unavailable"


def source_hash():
    """SHA-256 over the library and benchmark sources (path + bytes), so
    a result stays traceable where there is no git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def run_once(binary, workload, seed, seconds, trace, provenance):
    """Runs one workload; returns (exit code, stdout text)."""
    workdir = os.path.join(build_dir(), "work", f"{workload}-{seed}-{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", workdir, "--git-sha", provenance[0],
             "--source-hash", provenance[1]],
            capture_output=True, text=True)
        sys.stderr.write(result.stderr)
        # Keep the span dump of a traced run; drop models and stores.
        traces = os.path.join(build_dir(), "traces")
        for name in os.listdir(workdir):
            if name.startswith("trace-") and name.endswith(".json"):
                os.makedirs(traces, exist_ok=True)
                shutil.move(os.path.join(workdir, name),
                            os.path.join(traces, name))
                print(f"run.py: spans written to "
                      f"{os.path.relpath(os.path.join(traces, name), ROOT)}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result.returncode, result.stdout


def check_metric_names(stdout, trace, contract):
    """The last line must report exactly the contract's metrics."""
    if contract is None:
        return
    last = stdout.strip().splitlines()[-1] if stdout.strip() else "{}"
    try:
        reported = set(json.loads(last).get("metrics", {}))
    except json.JSONDecodeError:
        fail("the binary's last line is not JSON", 4)
    expected = {m["name"] for m in
                contract["per_layer" if trace else "end_to_end"]}
    if reported != expected:
        fail(f"metrics {sorted(reported ^ expected)} differ from "
             "BENCHMARK.json", 4)


def steadiness(binary, args, provenance, contract):
    """Repeats the workload and reports each metric's spread."""
    values = {}
    units = {}
    for k in range(args.steadiness):
        seed = args.seed + k
        code, stdout = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, provenance)
        if code != 0:
            fail(f"seed {seed}: the run failed (exit {code})", 1)
        last = json.loads(stdout.strip().splitlines()[-1])
        for name, metric in last["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in last["metrics"].items()),
            flush=True)
    bounds = {}
    if contract is not None:
        bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}
    print(f"\n{args.workload}: {args.steadiness} runs, seeds {args.seed}.."
          f"{args.seed + args.steadiness - 1}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}  verdict")
    unsteady = []
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = "(no bound)"
        elif spread <= bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
            unsteady.append(name)
        print(f"{name:28} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} "
              f"{'' if bound is None else format(bound, '.0%'):>7}  "
              f"{verdict} [{units[name]}]")
    if unsteady:
        fail(f"spread above bound: {', '.join(unsteady)}", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="repeat the workload N times (seeds seed..) "
                             "and report each metric's spread")
    args = parser.parse_args()

    binary = build()
    provenance = (git_sha(), source_hash())
    contract = load_contract()
    if args.steadiness > 0:
        steadiness(binary, args, provenance, contract)
        return
    code, stdout = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, provenance)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if code == 0:
        check_metric_names(stdout, args.trace, contract)
    sys.exit(code)


if __name__ == "__main__":
    main()
