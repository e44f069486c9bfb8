#!/usr/bin/env python3
"""Compare two sets of paperbench records (run.py --out) workload by workload.

    python3 paperbench/compare.py --base parent/*.json --new change/*.json

Refuses (exit 2) to compare records whose build flags, pool size, nproc or
--seconds differ, and records whose checks failed (correct: false).  For
every end-to-end metric of every workload it prints both medians, the
change, the base set's spread (quartile distance over median) and the bound
from BENCHMARK.json; a metric whose base spread exceeds its bound, or that
has fewer than two base runs to measure a spread from, is reported as
unresolved.  Records of the same workload and seed
must also agree on learning.final_acc_mean, which is deterministic per seed:
a difference means the change altered the learning.  Exit 1 on any
regression beyond its bound or any learning change, else 0.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def setup_of(record):
    return (json.dumps(record["build"], sort_keys=True),
            record["pool_workers"], record["nproc"], record["seconds"])


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    incorrect = [p for p, r in zip(args.base + args.new, base + new)
                 if not r["correct"]]
    if incorrect:
        print("compare: refusing records whose checks failed: "
              + ", ".join(incorrect), file=sys.stderr)
        sys.exit(2)
    setups = {setup_of(r) for r in base + new}
    if len(setups) != 1:
        print("compare: refusing records built or run differently:",
              file=sys.stderr)
        for build, workers, nproc, seconds in sorted(setups):
            print(f"  build {build} pool_workers {workers} nproc {nproc}"
                  f" seconds {seconds}", file=sys.stderr)
        sys.exit(2)

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failed = False
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print(f"{workload}: only in one set, skipped")
            continue
        print(f"{workload}: {len(b)} base run(s), {len(n)} new run(s)")
        for name, m in metrics.items():
            bv = [r["end_to_end"][name]["value"] for r in b]
            nv = [r["end_to_end"][name]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            s = spread(bv)
            verdict = "ok"
            if math.isnan(s):
                verdict = "unresolved (fewer than 2 base runs)"
            elif s > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                failed = True
            print(f"  {name:16s} base {bm:12.6g}  new {nm:12.6g} {m['unit']:6s}"
                  f" change {change:+7.2%}  base spread {s:6.2%}"
                  f"  bound {m['bound']:.0%}  {verdict}")
        base_acc = {r["seed"]: r["per_layer"]["learning.final_acc_mean"]["value"]
                    for r in b}
        for r in n:
            acc = r["per_layer"]["learning.final_acc_mean"]["value"]
            if r["seed"] in base_acc and acc != base_acc[r["seed"]]:
                print(f"  LEARNING CHANGED at seed {r['seed']}: final_acc_mean "
                      f"{base_acc[r['seed']]} -> {acc}")
                failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
