#!/usr/bin/env python3
"""Build perf_pipeline from source and run it.

One workload (the form BENCHMARK.json names), from the repository root:

    python3 bench/pipeline/run.py --workload small_objects --seed 1 --seconds 10 --trace 0

prints the benchmark's output; its last line is the result JSON. --trace 1
makes it the traced run, which reports the per-layer metrics instead.

Every workload, each in its own process so that setup_s and peak_rss_mib
stay per workload:

    python3 bench/pipeline/run.py [--trace 1] [--seed N] [--seconds S] OUTDIR

writes OUTDIR/<workload>.json (and <workload>_trace.json when traced) and
prints every metric as `workload metric value unit`.

The build lives in .bench_build/pipeline under the repository root. The exit
status is the benchmark's: 0, 1 when an op failed its check, 64 on bad usage.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "pipeline")
WORKLOADS = ["small_objects", "large_objects", "faulty_l1", "cluster_lifetime"]


def build():
    """Configure and build the benchmark binary; cheap when it is up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "--target", "perf_pipeline", "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
    return os.path.join(BUILD, "perf_pipeline")


def command(exe, workload, args, json_path=None):
    cmd = [exe, workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if json_path:
        cmd += ["--json", json_path]
    if args.trace:
        trace_dir = os.path.dirname(json_path) if json_path else BUILD
        cmd += ["--trace-json", os.path.join(trace_dir, workload + "_trace.json")]
    return cmd


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("outdir", nargs="?")
    args = parser.parse_args()
    if (args.workload is None) == (args.outdir is None):
        parser.error("give either --workload or OUTDIR")
    exe = build()

    if args.workload:
        sys.exit(subprocess.run(command(exe, args.workload, args)).returncode)

    os.makedirs(args.outdir, exist_ok=True)
    status = 0
    for workload in WORKLOADS:
        json_path = os.path.join(args.outdir, workload + ".json")
        done = subprocess.run(command(exe, workload, args, json_path),
                              stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit {done.returncode})", file=sys.stderr)
            status = status or 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload} correct {str(result['correct']).lower()} bool")
        print(f"{workload} attempted {result['attempted']} ops")
        print(f"{workload} failed {result['failed']} ops")
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    sys.exit(status)


if __name__ == "__main__":
    main()
