#!/usr/bin/env python3
"""Builds the RPAS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload loop_deepar --seed 7 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds the
RPAS libraries and the benchmark driver into .bench_build/ (about a minute
on 4 cores); later runs only re-check the build. The last line of stdout is
the driver's JSON result; the exit status is the driver's (non-zero when an
invariant failed or the build could not be made). See perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "cmake" / "rpas_perfbench"
# A run must end within 180 s; the driver binary is stopped with margin.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build():
    """Configures (once) and builds the driver; True when it is up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no RPAS sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmake_dir = BUILD_DIR / "cmake"
        if not (cmake_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if not run_quiet(configure):
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        return run_quiet(["cmake", "--build", str(cmake_dir), "-j", jobs])


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (same code paths, less work)")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    work_dir = BUILD_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--git-sha", git_sha()]
    if args.trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.jsonl")]
    if args.tiny:
        cmd += ["--tiny"]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
