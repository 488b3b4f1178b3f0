#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: arena-dense, arena-sparse, arena-faulted, repro-smoke (see
BENCHMARK.json for why each exists). The measuring program is the Rust
package in this directory; it is built with `cargo build --release
--offline` into $CARGO_TARGET_DIR (default `.bench_build`). The last line
of standard output is the result object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (spans are then written to perfbench/out/).

Exits non-zero, printing no result, when the repository sources are missing,
the build fails, or the program's output does not match BENCHMARK.json.

Each workload is one client issuing operations back to back (a closed
loop), with engine threads pinned to the host's core count. Which layers
each one barely exercises, so that a gain there will not show end to end:

- arena-dense: no fault masking; orchestration (pool barrier) is amortized.
- arena-sparse: fill, pack and match kernels are a few percent of an op.
- arena-faulted: no compiled tables (compile is ~0); overlap discovery is small.
- repro-smoke: the sweep/verify kernels are ~2% of an op (the density
  witnesses are ~95%); a kernel-only gain needs its own benchmark change.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("arena-dense", "arena-sparse", "arena-faulted", "repro-smoke")
# Sources the program is built from; without them there is nothing to measure.
REQUIRED = ("Cargo.toml", "src/lib.rs", "crates/sim/Cargo.toml", "vendor/serde_json/Cargo.toml")
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/src", "perfbench/Cargo.toml")
SUMMARY_PREFIXES = ("host ", "ops:", "setup:", "error_rate", "failure:", "self time")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group, killing the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def source_id():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            rc, out = run(["git", "rev-parse", "HEAD"], 30, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
            if rc == 0:
                return out.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Checks the result object against the contract; returns an error or None."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "no operation was attempted"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return f"metric names differ: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    for name, unit in want.items():
        m = got[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            return f"metric {name} is malformed: {m}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing or not os.path.isfile("BENCHMARK.json"):
        print(f"run.py: not a repository checkout (missing {missing or ['BENCHMARK.json']}); "
              "run from the repository root", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(os.path.relpath(HERE), "Cargo.toml")
    try:
        rc, _ = run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                    BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 3
    if rc != 0:
        print(f"run.py: build failed (exit {rc})", file=sys.stderr)
        return 3

    cmd = [os.path.join(target, "release", "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(os.path.relpath(HERE), "out",
                                            f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        rc, out = run(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    lines = out.decode(errors="replace").splitlines()
    if rc != 0 or not lines:
        print(f"run.py: benchmark failed (exit {rc})", file=sys.stderr)
        return 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    error = validate(result, args.trace)
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 5
    for line in lines[:-1]:
        if line.startswith(SUMMARY_PREFIXES):
            print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
