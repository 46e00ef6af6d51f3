#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of a checkout of the repository:

    python3 e2ebench/run.py --workload train-cooking --seed 1 --seconds 20 --trace 0

The library and the benchmark program (upskill_e2e) are built with CMake
(Release) under .bench_build/e2e; rebuilding is a no-op when nothing changed.
Result records and Chrome traces go to .bench_build/e2e-results. upskill_e2e
prints notes and metrics, then as its last line the result JSON. This script exits non-zero,
without a result line, when the sources are missing or do not build, and
passes on upskill_e2e's exit code otherwise (non-zero when an output check
failed).
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import time

WORKLOADS = ("train-cooking", "train-beer", "serve-observe", "serve-recommend")
# Wall-clock limits for one invocation; the first one also builds.
FIRST_RUN_LIMIT_S = 870
RUN_LIMIT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def source_id(root):
    """The commit when the checkout is a git repository, else a digest of the
    sources the benchmark builds."""
    if (root / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir, deadline):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "e2ebench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "upskill_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if result.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {root / 'src'}")
        return 2
    build_dir = root / ".bench_build" / "e2e"
    binary = build_dir / "upskill_e2e"
    first_build = not binary.exists()
    limit = FIRST_RUN_LIMIT_S if first_build else RUN_LIMIT_S
    deadline = start + limit
    if not build(root, build_dir, deadline):
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", str(root / ".bench_build" / "e2e-results"),
               "--commit", source_id(root)]
    sys.stdout.flush()
    process = subprocess.Popen(command, cwd=str(root))
    try:
        return process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log("benchmark run timed out")
        return 3


if __name__ == "__main__":
    sys.exit(main())
