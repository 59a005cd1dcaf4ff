"""Compare two sets of benchmark result files.

    python3 lcdbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each argument is a directory of result files written by run.py (or a
single result file).  For every workload and every end-to-end metric in
BENCHMARK.json the command prints each side's median and quartiles, the
spread (quartile distance over median), the gap between the medians in
the metric's worse direction, and whether that gap exceeds the metric's
bound.  It also compares the share of failed operations per workload.
With one set it prints that set's figures alone.

Exit status: 0 when no gap exceeds its bound, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_results(where: Path) -> dict[str, list[dict]]:
    """Untraced results grouped by workload."""
    files = [where] if where.is_file() else sorted(where.glob("*.json"))
    out: dict[str, list[dict]] = defaultdict(list)
    for path in files:
        detail = json.loads(path.read_text())
        if detail["meta"]["trace"] == 0:
            out[detail["meta"]["workload"]].append(detail)
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base."""
    change = (new - base) / base
    return change if better == "lower" else -change


def failed_share(details: list[dict]) -> tuple[int, int]:
    failed = sum(d["result"]["failed"] for d in details)
    attempted = sum(d["result"]["attempted"] for d in details)
    return failed, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sets", nargs="+", type=Path, help="one or two result sets")
    ap.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)
    if len(args.sets) > 2:
        ap.error("give one or two result sets")
    spec = json.loads(args.benchmark.read_text())
    sides = [load_results(p) for p in args.sets]
    workloads = [w["name"] for w in spec["workloads"]]
    regressions = 0
    head = f"{'workload':9} {'metric':14} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
    if len(sides) == 2:
        head += f" | {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'worse':>7} {'bound':>5}"
    print(head)
    for workload in workloads:
        groups = [side.get(workload, []) for side in sides]
        if not all(groups):
            print(f"{workload:9} (missing results)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            stats = []
            for details in groups:
                values = [d["result"]["metrics"][name]["value"] for d in details]
                med, q1, q3 = summary(values)
                stats.append(med)
                cells.append(f"{len(values):3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                             f"{(q3 - q1) / med:7.2%}")
            line = f"{workload:9} {name:14} " + " | ".join(cells)
            if len(stats) == 2:
                worse = worse_share(stats[0], stats[1], metric["better"])
                flag = worse > metric["bound"]
                regressions += flag
                line += f" {worse:+7.2%} {metric['bound']:5.2f}{'  EXCEEDS' if flag else ''}"
            print(line)
        shares = [failed_share(details) for details in groups]
        text = "  vs  ".join(f"{f}/{a}" for f, a in shares)
        differ = len(shares) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]
        regressions += differ
        print(f"{workload:9} {'failed':14} {text}{'  DIFFERS' if differ else ''}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
