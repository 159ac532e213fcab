#!/usr/bin/env python3
"""Builds the benchmark and this commit's `ssresf-serve` worker, then runs
the benchmark with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload soc5_active --seed 0 --seconds 25 --trace 0

Builds go to `$CARGO_TARGET_DIR` (default `perfbench/target`). Build output
goes to standard error, so the benchmark's last line of standard output is
its JSON result. The exit code is the benchmark's, or the build's when the
build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "Cargo.toml"


def cargo_build(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST), *args]
    return subprocess.run(cmd, stdout=sys.stderr).returncode


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target")).resolve()
    # The worker binary is a separate target of the serve crate; the
    # benchmark refuses to run without it rather than serve in-process.
    for args in ([], ["-p", "ssresf-serve", "--bin", "ssresf-serve"]):
        code = cargo_build(*args)
        if code != 0:
            print(f"perfbench: build failed ({code})", file=sys.stderr)
            return code or 1
    return subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
