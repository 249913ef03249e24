#!/usr/bin/env python3
"""End-to-end benchmark of the FilterForward edge box.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wall_float --seed 1 --seconds 25 --trace 0

Builds the program and the ffbench harness from source into .bench_build
(Release), runs one workload, and passes its output through: the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Build output goes to stderr. Spans of traced runs are written to .bench_out.
Workloads: wall_float and wan_archive (gated in BENCHMARK.json), and
tenants_int8 (int8 MC fan-out; runnable, not gated).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when the checkout is a git tree, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            return head.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ffbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "ffbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("perfbench: the program's sources (src/) are not in this checkout")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(OUT), "--commit", source_id()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
