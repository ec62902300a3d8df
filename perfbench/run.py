#!/usr/bin/env python3
"""The ipg end-to-end benchmark: one command for every workload.

Run from the repository root:

  python3 perfbench/run.py --workload serve-uniform --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --repeat 10 --seconds 15          # steadiness check

The first call configures and builds perfbench/ (the ipg library from
src/ plus the perfbench binary) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. A single run prints the binary's report and, as
its last line, the result object {correct, attempted, failed, metrics}.
--repeat N runs every workload N times with seeds seed..seed+N-1,
alternating the workload order, and prints each end-to-end metric's
median and quartiles next to its bound from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-uniform", "serve-zipf", "analyze", "faultsim")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the binary."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    bdir = build_dir()
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run([cmake, "-S", str(HERE), "-B", str(bdir), *gen,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if r.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    r = subprocess.run([cmake, "--build", str(bdir), "-j", jobs], stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")
    return bdir / "perfbench"


def commit_stamp():
    """Git commit when there is one, plus a digest of the sources built."""
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    h = hashlib.sha256()
    for d in (ROOT / "src", HERE):
        for p in sorted(d.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return f"{commit or 'unknown'}+src:{h.hexdigest()[:12]}"


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]],
            {m["name"]: m for m in spec["end_to_end"]})


def run_one(binary, workload, seed, seconds, trace, commit, threads=0, echo=True):
    """Runs one workload; returns (exit code, result object or None)."""
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit,
           "--oracle", str(HERE / "analyze_oracle.txt"),
           "--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if threads:
        cmd += ["--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    if echo and len(lines) > 1:
        print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        if echo and lines:
            print(lines[-1])
        return proc.returncode or 1, None
    return proc.returncode, result


def single(args):
    binary = build()
    e2e, layers, _ = declared_metrics()
    code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace,
                           commit_stamp(), args.threads)
    if result is None:
        sys.exit(code or 1)
    want = layers if args.trace else e2e
    if sorted(result["metrics"]) != sorted(want):
        fail("the run's metrics do not match BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(want))}")
    print(json.dumps(result))
    sys.exit(code)


def repeat(args):
    binary = build()
    e2e, _, declared = declared_metrics()
    commit = commit_stamp()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    values = {w: {m: [] for m in e2e} for w in workloads}
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.seed + r
            code, result = run_one(binary, w, seed, args.seconds, 0, commit, args.threads,
                                   echo=False)
            if code != 0 or result is None:
                fail(f"{w} seed {seed} failed (exit {code})")
            for m in e2e:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"round {r + 1}/{args.repeat} {w} seed {seed}: " +
                  ", ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in e2e),
                  flush=True)
    steady = True
    print(f"\n{'workload':14} {'metric':15} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in e2e:
            v = values[w][m]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = declared[m]["bound"]
            verdict = ("ok" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            steady = steady and spread <= bound
            print(f"{w:14} {m:15} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
    sys.exit(0 if steady else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="thread budget (default nproc); more than nproc is refused")
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness check: run each workload this many times")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if args.repeat > 0:
        repeat(args)
    elif args.workload is None:
        fail("--workload is required")
    else:
        single(args)


if __name__ == "__main__":
    main()
