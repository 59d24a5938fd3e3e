#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The Rust program (perfbench/src) is compiled in release mode with cargo,
offline, into $CARGO_TARGET_DIR (default perfbench/target); build output goes
to standard error. For one workload, the program's standard output, whose
last line is the JSON result, and its exit code are passed through unchanged.
`--workload all` runs every workload in turn, prints each result line
prefixed with the workload's name, and exits non-zero if any run failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["wan_md", "pod_real", "pod_lossy", "node_real"]


def build() -> str:
    """Builds the program; returns its path, or exits on a failed build."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return os.path.join(target, "release", "perfbench")


def main() -> int:
    exe = build()
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at : at + 1] != ["all"]:
        sys.stdout.flush()
        return subprocess.call([exe] + args)
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([exe] + args[:at] + [name] + args[at + 1 :], capture_output=True, text=True)
        lines = done.stdout.strip().splitlines() or ["(no output)"]
        print(f"{name}: {lines[-1]}", flush=True)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
