#!/usr/bin/env python3
"""Builds the benchmark and the identd daemon from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-linear --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default perfbench/target). The last
line of standard output is the result object printed by the benchmark.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def source_digest():
    """Digest of the sources the benchmark builds, standing in for a commit id."""
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(ROOT, top)
        for directory, subdirs, files in os.walk(base):
            subdirs[:] = sorted(d for d in subdirs if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "identd", "Cargo.toml")):
        sys.stderr.write("perfbench: run from a checkout of the repository; crates/identd is missing\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
         "-p", "perfbench", "-p", "identd", "--bins"],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    command = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--identd", os.path.join(target, "release", "identd"),
        "--workdir", os.path.join(target, "perfbench-work-%d" % os.getpid()),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
        "--source", source_digest(),
        "--spans", os.path.join(target, "perfbench-spans.jsonl"),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
