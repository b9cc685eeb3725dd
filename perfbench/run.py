#!/usr/bin/env python3
"""Build and run the SP simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark and the simulator library
from src/ are built with CMake under $CARGO_TARGET_DIR (default
.bench_build) inside the checkout, then the workload runs in its own
process. The last line of stdout is the result JSON; build output goes
to stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_grid", "observed_bt", "fault_campaign")
# A run (build excluded) must end well within the 180 s a run is allowed.
RUN_TIMEOUT_S = 175
# Bench-harness overrides that must never reach the measured process.
PINNED_ENV = ("SP_OPS", "SP_INIT", "SP_SEED", "SP_JOBS", "SP_CSV_DIR")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def revision():
    """Git revision when the checkout is a git work tree, else a digest of
    the sources the benchmark builds (src/ and perfbench/)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt in %s: the benchmark builds the "
             "simulator library from the checkout's sources" % ROOT)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-test of the checks")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "spbench_selftest")],
                                env=env).returncode)

    span_dir = os.path.join(bdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "spbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--revision", revision(),
           "--span-dir", span_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
