#!/usr/bin/env python3
"""Wall-clock serving benchmark of the fkde library.

Builds the benchmark (and the library, from ../src) with CMake, runs one
workload and relays its output. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

An untraced run is split over five processes, each setting up once and
measuring a fifth of --seconds; every metric is the mean of the middle
three of the five. Each process reports the fast quartile over chunks
of its own window. On a shared host the wake-up latencies a process sees
settle into one of a few levels (about 40, 50 or 56 us per serve_hot
estimate), so a median would jump between levels from run to run; the
trimmed mean averages them and still drops one unlucky process at each
end. The first process also runs the output checks that replay the
calls. A traced run is one process.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Build files go to $CARGO_TARGET_DIR (or
.bench_build) under perfbench/; the traced run's Chrome trace, layer table
and every run's full record go to perfbench-out/ beside them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("serve_hot", "serve_churn", "reoptimize", "stream_wide")
RUN_TIMEOUT_S = 170
PROCESSES = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs,
               "--target", "fkde_perfbench"], "build")
    return build_dir / "fkde_perfbench"


def source_rev():
    """Git revision when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return "git-" + proc.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"library sources not found under {ROOT / 'src'}")

    binary = build(build_root() / "perfbench")
    out_dir = build_root() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    processes = 1 if args.trace == "1" else PROCESSES
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes), "--trace", args.trace,
           "--out", str(out_dir), "--source-rev", source_rev()]
    results = []
    exit_code = 0
    for k in range(processes):
        try:
            proc = subprocess.run(cmd + ["--check", "1" if k == 0 else "0"],
                                  cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S / processes)
        except subprocess.TimeoutExpired:
            fail(f"a process exceeded {RUN_TIMEOUT_S / processes:.0f} s")
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
            sys.stdout.write(proc.stdout)
            fail(f"benchmark exited {proc.returncode} without a result")
        print(f"== process {k + 1} of {processes}")
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
        exit_code = max(exit_code, proc.returncode)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = sorted(r["metrics"][name]["value"] for r in results)
        middle = values[1:-1] if len(values) > 2 else values
        metrics[name] = {"value": statistics.fmean(middle),
                         "unit": first["unit"]}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    sys.stdout.flush()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
