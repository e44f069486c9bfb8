#!/usr/bin/env python3
"""Paper-cell benchmark: build, run one workload, print every metric.

    python3 paperbench/run.py --workload dec-mlp --seed 11 --seconds 45 \
        --trace 0 [--out record.json]

Run from the root of a checkout.  The first call configures and builds the
library and the benchmark program (paperbench/paper_cells.cpp) in Release
mode under .bench_build/paperbench; later calls only re-run the (no-op)
build.

paper_cells runs the workload's cells untraced for --seconds, then once more
with timing shims at the trainers' plug points, then checks the outputs (see
README.md).  This script prints the provenance, every end-to-end and
per-layer metric with its unit, and the checks; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  Exit status: 0
when every check passed, 1 when a check failed, 2 when the build or the run
failed (no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "paperbench"
WORKLOADS = ("cen-mlp", "dec-mlp", "dec-mlp-async", "cen-cifarnet")
DEFAULT_SEED = 11  # the paper harnesses' seed; README.md names the held-out one
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"paperbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout):
    """Runs `cmd` in its own process group, returning (exit code, output); on
    timeout kills the whole group and waits for it, so no compiler or benchmark
    process outlives this script."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT} (run from a checkout)")
    if not (BUILD / "CMakeCache.txt").is_file():
        code, out = run(["cmake", "-S", str(ROOT / "paperbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S)
        if code != 0:
            fail(f"cmake configure failed:\n{out}")
    code, out = run(["cmake", "--build", str(BUILD), "--target", "paper_cells",
                     "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    if code != 0:
        fail(f"build failed:\n{out}")
    return BUILD / "paper_cells"


def git(*args):
    """Output of a git command in the checkout, None outside a repository
    (the ceiling keeps git from finding an enclosing one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the files the benchmark builds from, so records of
    non-git checkouts still name the exact code they measured."""
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "paperbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(record):
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "build": record["build"],
        "pool_workers": record["pool_workers"],
        "nproc": record["nproc"],
        "seed": record["seed"],
    }


def print_report(record):
    print(f"== paperbench {record['workload']}  seed {record['seed']}  "
          f"{record['passes']} untraced pass(es), "
          f"{record['rounds_timed']} rounds timed, "
          f"{record['rounds_traced']} traced")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for group in ("end_to_end", "per_layer"):
        print(f"-- {group}")
        for name, metric in record[group].items():
            print(f"   {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print("-- cells (first untraced pass)")
    for cell in record["cells"]:
        status = f"FAILED: {cell['error']}" if cell["error"] else ""
        print(f"   {cell['label']:20s} {cell['rounds']:4d} rounds "
              f"{cell['round_norm_ms_mean']:9.3f} norm ms/round  best "
              f"{cell['best_acc']:.4f}  final {cell['final_acc']:.4f} {status}")
    print(f"   fail_ratio {record['failed']}/{record['attempted']}")
    print("-- checks")
    for check in record["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"   {mark} {check['name']}  {check['detail']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    record_path = BUILD / f"record-{args.workload}.json"
    record_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(record_path)]
    code, out = run(cmd, RUN_TIMEOUT_S)
    if code not in (0, 1) or not record_path.is_file():
        fail(f"paper_cells exited with {code}:\n{out}")
    record = json.loads(record_path.read_text())
    record["provenance"] = provenance(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    print_report(record)
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if record["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
