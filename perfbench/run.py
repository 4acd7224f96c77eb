#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a standalone Cargo package (perfbench/Cargo.toml) built
against the workspace crates by path, offline, in release mode, into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). Build output
goes to stderr; the benchmark's own output goes to stdout, whose last line is
the JSON result. Result, ledger and span files are written under
<target dir>/perfbench-out. The exit code is the benchmark's: 0 when every
correctness check passed, non-zero otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys


def run_timeout(argv: list[str]) -> float:
    """Seconds to wait for the benchmark: its measured time plus room for
    set-ups and warm-ups, which grow with it (at most a minute of warm-ups)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=float, default=10.0)
    known, _ = parser.parse_known_args(argv)
    return 1.5 * max(known.seconds, 0.0) + 100.0


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-out")
    timeout = run_timeout(sys.argv[1:])
    try:
        run = subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir],
                             cwd=root, env=env, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {timeout:.0f} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
