#!/usr/bin/env python3
"""Build and run the dismem paper-workload benchmark.

    python3 perfbench/run.py --workload study-x1 --seed 0 --seconds 35 --trace 0

Run from the repository root. Builds the `perfbench` package in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and
prints one JSON result line last on stdout. This wrapper adds the metrics
only the parent process can see: `peak_rss_mib` (end to end) and
`host.cpu_util` (per layer). Exits non-zero, without a result line, when the
build or the run fails, and non-zero with a result line when outputs are wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("study-x1", "fleet-warm")
# A run that has not finished by then is killed; the driver allows 180 s.
RUN_TIMEOUT_S = 170


def build(target_dir):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    return done.returncode == 0


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout, rusage, wall s)."""
    start = time.monotonic()
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps this child alone, so its rusage excludes the build.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--work-dir", default=os.path.join("perfbench", "work"))
    a = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir, "release", "dismem-perfbench")
    args = [
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--threads", str(a.threads),
        "--root", ROOT,
        "--work-dir", os.path.join(ROOT, a.work_dir),
    ]
    # Flush dirty pages left by earlier runs, so that this run's journal I/O
    # does not queue behind their writeback.
    os.sync()
    code, out, usage, wall = run(binary, args)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: run exited {code} without a result", file=sys.stderr)
        return 3
    metrics = result["metrics"]
    if a.trace:
        cpu = usage.ru_utime + usage.ru_stime
        metrics["host.cpu_util"] = {"value": cpu / wall, "unit": "ratio"}
    else:
        metrics["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
