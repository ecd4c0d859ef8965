#!/usr/bin/env python3
"""Builds the WaTZ benchmark from the checkout's sources and runs one workload.

    python3 watzbench/run.py --workload <interactive|polybench|onboarding> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 watzbench/run.py --selftest [--seed <n>]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/watzbench
(default .bench_build/watzbench); run records and trace files go next to it in
watzbench-out/. Build output goes to stderr; the benchmark's stdout is passed
through, so its last line is the result object.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(os.getcwd(), root)


def source_digest():
    """SHA-256 over the program and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["interactive", "polybench", "onboarding"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "gateway", "gateway.hpp")):
        print("watzbench: no WaTZ sources next to the benchmark", file=sys.stderr)
        return 2

    root = build_root()
    build_dir = os.path.join(root, "watzbench")
    if not build(build_dir):
        print("watzbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(build_dir, "watzbench")
    if args.selftest:
        cmd = [binary, "--selftest", "--seed", str(args.seed)]
    else:
        out_dir = os.path.join(root, "watzbench-out")
        os.makedirs(out_dir, exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir,
               "--commit", git_commit(), "--source", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("watzbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
