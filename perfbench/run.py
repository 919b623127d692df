#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench` in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs it, and passes its standard output
through: the last line is the result JSON. Exits non-zero without a result when the
build or the run fails or the run takes longer than `RUN_TIMEOUT_S`.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fuse_200k", "serve_2m", "query_200k")
RUN_TIMEOUT_S = 170
# Inputs to the measured program, hashed to name the revision when git is unavailable.
SOURCE_GLOBS = ("Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml", "shims/**/*.rs")


def revision():
    """The checkout's git commit, or a digest of the program's sources outside git."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for pattern in SOURCE_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed with code {build.returncode}")

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rev", revision(),
        "--work-dir", str(target / "perfbench-work"),
    ]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.exit(f"perfbench: run failed with code {run.returncode}")


if __name__ == "__main__":
    main()
