#!/usr/bin/env python3
"""Self-test of the VDX benchmark at tiny size (about 20 s).

    python3 vdxbench/selftest.py

For every workload it checks that:
  * an untraced run prints every end-to-end metric of BENCHMARK.json with its
    unit, each finite and nonzero, and passes its output checks;
  * a traced run prints every per-layer metric with its unit, and a layer
    metric is nonzero exactly where LAYERS_RUN below (the prediction table of
    README.md) says the layer runs;
  * the traced run's decision digest equals the untraced run's;
  * the largest attributed layer is the one README.md predicts.
It also checks that a digest that differs from the expected one fails the run,
and that run.py fails, without printing a result, in a directory that holds
only BENCHMARK.json and vdxbench/. Exits 1 on the first failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1

# Per-layer metrics that must be nonzero on each workload; every other layer
# metric must read exactly 0 there. untraced_s and trace_overhead are printed
# everywhere and unconstrained.
LAYERS_RUN = {
    "stream-1m": {
        "trace.calls", "trace.sessions", "trace.self_s", "sim.epoch_self_s",
        "solver.calls", "solver.self_s",
    },
    "serve-overload": {
        "trace.calls", "trace.sessions", "trace.self_s",
        "broker.gather_self_s", "broker.optimize_self_s", "broker.bid_win_ratio",
        "cdn.matching_self_s",
        "proto.wire_self_s", "proto.bytes_on_wire", "proto.shares_sent",
        "proto.bids_received", "proto.accepts_sent",
        "solver.calls", "solver.self_s",
        "serve.shed_clients", "serve.shed_rounds", "serve.queue_dropped",
        "serve.round_self_s",
        "state.calls", "state.bytes_written", "state.fsyncs", "state.self_s",
    },
    "shard-churn": {
        "broker.gather_self_s", "broker.optimize_self_s", "broker.bid_win_ratio",
        "cdn.matching_self_s",
        "proto.wire_self_s", "proto.bytes_on_wire", "proto.shares_sent",
        "proto.bids_received", "proto.accepts_sent",
        "solver.calls", "solver.self_s",
        "market.push_delta_calls", "market.push_delta_s", "market.round_self_s",
        "exchange.shard.frames",
    },
}
UNCONSTRAINED = {"untraced_s", "trace_overhead"}
# Self-time metrics per layer, for the largest-layer check.
LAYER_TIMES = {
    "trace": ["trace.self_s"],
    "sim": ["sim.epoch_self_s"],
    "broker": ["broker.gather_self_s", "broker.optimize_self_s"],
    "cdn": ["cdn.matching_self_s"],
    "proto": ["proto.wire_self_s"],
    "solver": ["solver.self_s"],
    "market": ["market.push_delta_s", "market.round_self_s"],
    "serve": ["serve.round_self_s"],
    "state": ["state.self_s"],
}
LARGEST_LAYER = {"stream-1m": "solver", "serve-overload": "proto"}


def fail(message):
    sys.stderr.write("selftest: FAIL: %s\n" % message)
    sys.exit(1)


def run(workload, trace, cwd=ROOT):
    command = [sys.executable, os.path.join("vdxbench", "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "3", "--trace", str(trace),
               "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done, what):
    if done.returncode != 0:
        fail("%s exited %d:\n%s" % (what, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            what, result["correct"], result["attempted"], result["failed"]))
    digests = {line.split()[-1] for line in lines if line.startswith("digest ")}
    if len(digests) != 1:
        fail("%s: digests %s" % (what, sorted(digests)))
    return result, digests.pop()


def check_metrics(result, declared, what):
    got = result["metrics"]
    if list(got) != [m["name"] for m in declared]:
        fail("%s: metrics %s, declared %s" % (what, list(got), [m["name"] for m in declared]))
    for m in declared:
        value = got[m["name"]]["value"]
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s unit %s, declared %s" % (what, m["name"], got[m["name"]]["unit"],
                                                  m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s = %r" % (what, m["name"], value))
    return {name: metric["value"] for name, metric in got.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        untraced, digest = result_of(run(workload, 0), workload + " untraced")
        values = check_metrics(untraced, bench["end_to_end"], workload + " untraced")
        zero = [name for name, value in values.items() if value == 0]
        if zero:
            fail("%s: end-to-end metrics read 0: %s" % (workload, zero))

        traced, traced_digest = result_of(run(workload, 1), workload + " traced")
        values = check_metrics(traced, bench["per_layer"], workload + " traced")
        if traced_digest != digest:
            fail("%s: traced digest %s, untraced %s" % (workload, traced_digest, digest))
        for name, value in values.items():
            if name in UNCONSTRAINED:
                continue
            expected = name in LAYERS_RUN[workload]
            if expected != (value != 0):
                fail("%s: %s = %r, predicted %s" % (
                    workload, name, value, "nonzero" if expected else "0"))
        times = {layer: sum(values[m] for m in names) for layer, names in LAYER_TIMES.items()}
        largest = max(times, key=times.get)
        if workload in LARGEST_LAYER and largest != LARGEST_LAYER[workload]:
            fail("%s: largest layer %s, predicted %s (%s)" % (
                workload, largest, LARGEST_LAYER[workload], times))
        print("selftest: %-15s ok  digest %s  largest layer %s" % (workload, digest, largest))

    # A decision digest other than the expected one fails the run.
    binary = os.path.join(ROOT, ".bench_build", "vdxbench", "vdxbench")
    done = subprocess.run([binary, "--workload", "serve-overload", "--seed", str(SEED),
                           "--seconds", "1", "--trace", "0", "--size", "tiny",
                           "--expect-digest", "0" * 16, "--scratch",
                           os.path.join(ROOT, ".bench_build", "scratch")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    last = json.loads(done.stdout.strip().split("\n")[-1])
    if done.returncode != 1 or last["correct"] is not False:
        fail("a wrong expected digest exited %d with correct=%s" % (
            done.returncode, last["correct"]))
    print("selftest: a digest mismatch fails the run (exit 1)")

    # Without the repository's sources the benchmark must fail, printing no result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "vdxbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("serve-overload", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip().startswith("{") or '"correct"' in done.stdout:
        fail("a checkout without sources exited %d with output %r" % (
            done.returncode, done.stdout[-200:]))
    print("selftest: bare checkout fails without a result (exit %d)" % done.returncode)


if __name__ == "__main__":
    main()
