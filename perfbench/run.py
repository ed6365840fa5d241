#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build/, runs the named
workload, checks that the metrics it reports are exactly the ones
BENCHMARK.json declares, and prints its result object as the last line of
standard output. Traced results are also kept in .bench_out/, and once the
traced results of stream-scale and bank-escrow for one seed are both there,
the predicted layer ranking between them is checked and printed.

Exits non-zero without printing a result when the source tree is missing,
the build fails, or the run fails a correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def replay_s(metrics, layer):
    """A layer replay's total time: its call count times ns per call."""
    ops = metrics[f"{layer}.replay_ops"]["value"]
    return ops * metrics[f"{layer}.replay_ns_per_op"]["value"] / 1e9


def check_ranking(out_dir, seed):
    """Cross-workload predictions, reported (never enforced) once the
    traced results they compare exist for this seed."""
    results = {}
    for w in ("stream-scale", "bank-escrow"):
        path = os.path.join(out_dir, f"layers-{w}-seed{seed}.json")
        if not os.path.exists(path):
            return
        with open(path) as f:
            results[w] = json.load(f)["metrics"]
    for layer, high, low in (("txn", "stream-scale", "bank-escrow"),
                             ("gdo", "bank-escrow", "stream-scale")):
        a, b = replay_s(results[high], layer), replay_s(results[low], layer)
        verdict = "holds" if a > b else "FAILS"
        print(f"prediction {verdict}: {layer} replay time {high} {a:.6f} s "
              f"> {low} {b:.6f} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("dune-project", os.path.join("lib", "core", "runtime.ml"),
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a source checkout", 2)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)

    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(build_dir, "xdg-cache"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "--profile", "release", "./perfbench/perfbench.exe"],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    try:
        run = subprocess.run(
            [exe, args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run failed with exit code {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result object")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")

    for line in lines[:-1]:
        print(line)
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"layers-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(result, f)
        if args.workload in ("stream-scale", "bank-escrow"):
            check_ranking(out_dir, args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
