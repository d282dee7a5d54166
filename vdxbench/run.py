#!/usr/bin/env python3
"""Build and run one VDX benchmark workload.

    python3 vdxbench/run.py --workload stream-1m|serve-overload|shard-churn \
        --seed N --seconds S --trace 0|1 [--size tiny] [--out results.jsonl]

Run from the root of a checkout. The first call configures and builds the
benchmark package (vdxbench/CMakeLists.txt, which compiles ../src) into
.bench_build/vdxbench; later calls only re-check the build.

An untraced run (--trace 0) starts the workload in three fresh processes, one
after another, each measuring a third of --seconds, and reports the median of
each end-to-end metric over the three. On a shared 4-vCPU VM one process's
rounds can run 20 % faster or slower than the next process's for the whole
process, and the median drops that odd process out. The three must print the
same decision digest. A traced run (--trace 1) is one
process that runs a fixed number of rounds twice, untraced then traced.

Each process's report goes to standard output; the last line is one JSON
object with the keys correct, attempted, failed and metrics. --out appends
that result, with the workload, seed and trace flag, to a JSON-lines file for
compare.py. The exit code is 0 only when the build succeeded and every output
check passed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vdxbench")
BINARY = os.path.join(BUILD, "vdxbench")
WORKLOADS = ("stream-1m", "serve-overload", "shard-churn")
UNTRACED_PROCESSES = 3
# Every process together must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "vdxbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("vdxbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    entry = recorded.get(workload, {})
    return entry.get("digest") if entry.get("seed") == seed else None


def run_process(command, deadline):
    """One workload process: echoes its report, returns (result, digest)."""
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("vdxbench: the run passed %d s\n" % RUN_TIMEOUT_S)
        return None, None
    lines = out.rstrip("\n").split("\n")
    # The result line is echoed once, merged, by main().
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write("vdxbench: no result line (exit %d)\n" % proc.returncode)
        return None, None
    if proc.returncode != 0:
        result["correct"] = False
    digest = next((line.split()[-1] for line in lines if line.startswith("digest ")), "")
    return result, digest


def merge(results):
    """Median of each metric over the processes; counts are summed."""
    merged = {
        "correct": all(r["correct"] is True for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        merged["metrics"][name] = {"value": statistics.median(values),
                                   "unit": first["unit"]}
    if len(results) > 1:
        for name, metric in merged["metrics"].items():
            values = " ".join("%.6g" % r["metrics"][name]["value"] for r in results)
            print("median %-22s %.6g %s  (of %s)" % (name, metric["value"],
                                                   metric["unit"], values))
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("tiny",))
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--scratch", scratch]
    if args.size:
        command += ["--size", args.size]
    else:
        expected = recorded_digest(args.workload, args.seed)
        if expected:
            command += ["--expect-digest", expected]

    processes = 1 if args.trace else UNTRACED_PROCESSES
    command += ["--seconds", repr(args.seconds / processes)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, digests = [], set()
    for _ in range(processes):
        result, digest = run_process(command, deadline)
        if result is None:
            return 1
        results.append(result)
        digests.add(digest)

    result = merge(results)
    if len(digests) != 1:
        sys.stderr.write("vdxbench: processes disagree on the decision digest: %s\n"
                         % sorted(digests))
        result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "size": args.size or "full", "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    return 0 if result["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main())
