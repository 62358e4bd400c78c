#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark package
(`perfbench/Cargo.toml`) and the `occamy` CLI from source with
`cargo build --release --offline` (into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs the workload, prints one `name value unit` line
per metric and, as the last line, the JSON result:
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the `end_to_end` ones of
`BENCHMARK.json`. With `--trace 1` the workload runs twice, untraced
and then traced, and the metrics are the `per_layer` ones plus
`bench.trace_overhead_frac`, the traced run's extra host time per unit
of work over the untraced run's.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

# A run may take `--seconds` plus set-up; this bounds a hung one.
GRACE_SECONDS = 120
REFS = os.path.join("perfbench", "reference_digests.json")
OUT = os.path.join("perfbench", "out")
# The untraced throughput each workload's overhead is measured on.
OVERHEAD_BASIS = {
    "paper_corun": "sim_mcycles_per_s",
    "idle_chase": "sim_mcycles_per_s",
    "service_mix": "svc_jobs_per_s",
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # Cargo's progress goes to stderr; keep stdout for results.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed: " + " ".join(cmd))


def fingerprint():
    def output(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output(["rustc", "--version"]) or "unknown",
        "git_commit": output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "kernel": platform.release(),
    }


def run_binary(path, argv, seconds):
    try:
        r = subprocess.run(
            [path] + argv,
            stdout=subprocess.PIPE,
            text=True,
            timeout=seconds * 3 + GRACE_SECONDS,
        )
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(path)} timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{os.path.basename(path)} exited with {r.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    spec_path = "BENCHMARK.json"
    if not os.path.isfile(spec_path):
        fail("run from the root of a checkout (no BENCHMARK.json here)")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    cargo_build(["-p", "occamy-cli", "--bin", "occamy"])
    release = os.path.join(target, "release")

    host = fingerprint()
    print("host " + json.dumps(host, sort_keys=True))
    argv = [
        "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--refs", REFS,
        "--out", OUT,
        "--occamy", os.path.join(release, "occamy"),
        "--fingerprint", json.dumps(host),
    ]
    runs = [run_binary(os.path.join(release, "perfbench"), argv, args.seconds)]
    if args.trace:
        runs.append(run_binary(os.path.join(release, "perfbench_traced"), argv, args.seconds))
    measured = runs[-1]["metrics"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "bench.trace_overhead_frac":
            basis = OVERHEAD_BASIS[args.workload]
            untraced = runs[0]["metrics"][basis]["value"]
            traced = runs[1]["metrics"][basis]["value"]
            value = untraced / traced - 1.0
        elif name in measured:
            value = measured[name]["value"]
            if measured[name]["unit"] != m["unit"]:
                fail(f"{name} is in {measured[name]['unit']}, BENCHMARK.json says {m['unit']}")
        else:
            fail(f"{args.workload} did not report {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    if args.trace:
        print(f"{'bench.trace_overhead_frac':<36} {metrics['bench.trace_overhead_frac']['value']:>16.6f} frac")

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
