#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload compile-large --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when it is set (relative paths are
taken from the current directory), else to perfbench/target. Traces,
determinism records and the serve workload's store directories go to
perfbench/out. The last line of standard output is the run's JSON
result; the exit code is the benchmark's (0 only when every check
passed), or 2 when the build fails.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = target / "release" / "perfbench"
    return subprocess.run([str(exe), *sys.argv[1:], "--out", str(HERE / "out")]).returncode


if __name__ == "__main__":
    sys.exit(main())
