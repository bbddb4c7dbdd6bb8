#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <textbook|apps|textbook-par> \
        --seed <n> --seconds <n> --trace <0|1>

Builds perfbench/Cargo.toml in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build at the repository root), then replaces itself with
the benchmark binary, passing the arguments through. Build output goes to
standard error; the last line of standard output is the benchmark's result.
A failed build exits with status 1 and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
