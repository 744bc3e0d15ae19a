#!/usr/bin/env python3
"""Host-cost benchmark of the simulator: build, prepare inputs, run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig8_ladder --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator library plus the benchmark binary
pcs_perfbench) into .bench_build/, prepares the nighres_replay log there when
it is missing or older than the binary, then runs pcs_perfbench.  Its last
line of standard output is the result: {"correct", "attempted", "failed",
"metrics"}.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "build"
DATA_DIR = BUILD_ROOT / "data"
OUT_DIR = BUILD_ROOT / "out"
BINARY = BUILD_DIR / "pcs_perfbench"
PREPARE_TIMEOUT_S = 170
# A run measures for --seconds, then may finish its last pass, and adds a
# warm-up pass, a reference run and (traced) a traffic pass and the probe.
RUN_MARGIN_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def workload_names():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def build():
    """Configure (once) and build pcs_perfbench; build output goes to a log."""
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT / 'src'}")
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "pcs_perfbench", "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))


def data_dir(quick):
    return DATA_DIR / ("quick" if quick else "full")


def prepare(quick):
    """Record the nighres log the replay workload reads (untimed)."""
    scenario = data_dir(quick) / "nighres.replay.json"
    if scenario.exists() and scenario.stat().st_mtime >= BINARY.stat().st_mtime:
        return
    cmd = [str(BINARY), "prepare", "--root", str(ROOT), "--data", str(data_dir(quick))]
    if quick:
        cmd.append("--quick")
    if subprocess.run(cmd, timeout=PREPARE_TIMEOUT_S).returncode != 0:
        fail("preparing the nighres log failed")


def commit():
    """HEAD of the checkout's own git repository, if it is one."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator sources: identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--quick", action="store_true",
                        help="smallest sizes, one pass (the self-test)")
    parser.add_argument("--pins", default=str(BENCH_DIR / "expected.json"),
                        help="pinned fingerprints the outputs are checked against")
    return parser.parse_args(argv)


def run(argv):
    """Build, prepare and run; returns pcs_perfbench's exit code."""
    args = parse_args(argv)
    if args.workload not in workload_names():
        fail(f"unknown workload '{args.workload}'")
    build()
    if args.workload == "nighres_replay":
        prepare(args.quick)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "run", "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", args.trace, "--root", str(ROOT),
           "--data", str(data_dir(args.quick)), "--out", str(OUT_DIR), "--pins", args.pins,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    timeout = args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s")


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
