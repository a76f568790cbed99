#!/usr/bin/env python3
"""Build the release `rat` binary and the benchmark, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <serve_unique|serve_hot|design_search> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr; the last line of stdout is the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "cli", "Cargo.toml")):
        print("perfbench: run from the root of a rat checkout (no crates/cli here)",
              file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rat-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        code = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: `{' '.join(cmd)}` failed with exit {code}", file=sys.stderr)
            return code or 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "rat-perfbench")
    args = sys.argv[1:] + [
        "--rat", os.path.join(release, "rat"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    # A child process rather than exec: getrusage(RUSAGE_CHILDREN) in the
    # benchmark must not inherit the compilers' CPU time and peak RSS.
    return subprocess.call([bench] + args, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
