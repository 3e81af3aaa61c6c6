#!/usr/bin/env python3
"""Builds and runs the Autonomizer benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flappy_loop --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which builds ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Build output goes to stderr. The benchmark's own stdout is passed through;
its last line is the JSON result. Any failure exits non-zero without
printing a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flappy_loop", "flappy_fleet", "serve_tenants", "canny_sl")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Autonomizer sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_quiet(cmd)
        jobs = str(min(4, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", str(out), "--target", "perfbench",
                   "-j", jobs])
    exe = out / "perfbench"
    if not exe.is_file():
        fail("build produced no perfbench binary")
    return exe


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "none"


def source_digest():
    """sha256 over the program and benchmark sources, so results from
    different code can be told apart where there is no git commit."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--inject-wrong-reply", type=int, default=-1,
                    help="serve_tenants: corrupt this call's reply "
                         "(self-test of the output check)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inject-wrong-reply", str(args.inject_wrong_reply),
           "--commit", git_commit(), "--src-digest", source_digest()]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stdout)
        fail(f"benchmark exited with code {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(res.stdout)
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(res.stdout)
        fail("result line has the wrong keys")
    sys.stdout.write(res.stdout)


if __name__ == "__main__":
    main()
