#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (the dskg library from src/ plus the perfbench
program) from source with CMake into the build directory, then runs one
workload. Its last stdout line is the result JSON. Build output
goes to stderr. Exits non-zero without a result when the build fails.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the repository root.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configures and builds the benchmark once per checkout; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "cmake"
    binary = cmake_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(cmake_dir), "-j", jobs]]
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    if not binary.exists():
        raise SystemExit("perfbench: build produced no perfbench binary")
    return binary


def main(argv) -> int:
    binary = build()
    out_dir = build_dir() / "perfbench-out"
    cmd = [str(binary), *argv, "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
