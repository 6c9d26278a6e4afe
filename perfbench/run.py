#!/usr/bin/env python3
"""Build and run the mtfpu benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload figure-suite --seed 1 --seconds 10 --trace 0

The first run configures and builds a Release tree of the simulator
libraries, the daemon (mtfpu-cli), the worker (mtfpu-workerd) and the
perfbench driver under $CARGO_TARGET_DIR (default .bench_build); later
runs only re-check it. The driver binary does all measuring and prints
the result as the last line of standard output. Scratch files (result
cache, journals, sockets) live in a per-run directory under the build
tree that is removed when the run ends.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure-suite", "fault-campaign", "service-mixed")
# Sources the stamp digests: what the benchmark builds and runs.
DIGESTED = ("src", "bench/mtfpu_cli.cc", "bench/mtfpu_workerd.cc", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def source_digest():
    h = hashlib.sha256()
    for entry in DIGESTED:
        path = os.path.join(ROOT, entry)
        files = [path]
        if os.path.isdir(path):
            files = sorted(
                os.path.join(d, f) for d, _, names in os.walk(path) for f in names
            )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "none"


def build(build_dir):
    """Configure once, then build the three targets (a no-op when fresh)."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log,
        )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench", "mtfpu-cli", "mtfpu-workerd"],
        check=True, stdout=log, stderr=log,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-anchor", action="store_true",
                    help="regenerate perfbench/anchor.json instead of measuring")
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "bench/mtfpu_cli.cc", "bench/mtfpu_workerd.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail("missing %s: run from a full mtfpu checkout" % needed)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        return fail("build failed: %s" % err)

    # Relative to ROOT and short: the daemon's Unix socket lives here,
    # and socket paths are limited to ~100 bytes.
    work = os.path.relpath(os.path.join(base, "run-%d" % os.getpid()), ROOT)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", build_dir,
        "--work-dir", work,
        "--anchor", os.path.join(HERE, "anchor.json"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    if args.write_anchor:
        cmd.append("--write-anchor")
    try:
        return subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
