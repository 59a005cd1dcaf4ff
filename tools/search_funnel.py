"""Count how the search funnel narrows on the benchmark's search jobs.

    PYTHONPATH=src python3 tools/search_funnel.py [--seeds 42]

For every target of lcdbench/workloads.SEARCH_TARGETS it runs the jobs
the search workload builds from the given seeds, search_random_lcd as the
workload calls it, and counts per target:

    trials      samples drawn (orthogen.random_orthogonal calls)
    light       samples gated out at their first row lighter than
                target_d, with the row indices they stopped at
    rows        rows built (one unit-vector draw each)
    whole       rows that building every sample in full would take
    subsets     k-row subsets scanned: decided by the MDS kernel
                (construct._mds_subsets) on an MDS target, by one
                distance call each otherwise
    messages    messages the distance calls that enumerated visited
    certified   subsets the kernel or the Singleton certificate decided,
                as passed/failed: d = n - k + 1, or some k columns of
                the subset dependent, so d < target_d
    checks      distance calls that certify a hit of the kernel

The counts are deterministic: they follow from the seeds alone.  rows
against whole is the work the row gate saves.  Standard library only; it
reads the workload definitions under lcdbench/ and writes nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lcdbench")]

import workloads  # noqa: E402
from lcdkit import codes, construct, orthogen  # noqa: E402
from lcdkit.gf import parse_field  # noqa: E402

COLUMNS = ("jobs", "trials", "light", "rows", "whole", "subsets",
           "messages", "certified", "checks")


class Funnel:
    """Wraps the sampler, its draws, the MDS kernel and the distance while
    installed, and counts into the Counter of the current target."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.stops: Counter = Counter()     # light samples by stopping row
        self.checking = False               # the next distance call checks

    @contextlib.contextmanager
    def installed(self):
        draws, sample = orthogen._unit_draws, orthogen.random_orthogonal
        kernel = construct._mds_subsets
        distance = codes.LinearCode.distance

        def counted_draws(ctx, n, rng):
            for v in draws(ctx, n, rng):
                self.counts["rows"] += 1
                yield v

        def counted_sample(ctx, n, seed=0, min_weight=0):
            before = self.counts["rows"]
            A = sample(ctx, n, seed, min_weight)
            self.counts["trials"] += 1
            self.counts["whole"] += n
            if A is None:
                self.counts["light"] += 1
                self.stops[self.counts["rows"] - before - 1] += 1
            return A

        def counted_kernel(ctx, rows, k):
            for subset, mds in kernel(ctx, rows, k):
                self.counts["subsets"] += 1
                self.counts["passed" if mds else "failed"] += 1
                self.checking = mds
                yield subset, mds

        def counted_distance(code, *args, **kwargs):
            result = distance(code, *args, **kwargs)
            if self.checking:
                self.checking = False
                self.counts["checks"] += 1
                return result
            self.counts["subsets"] += 1
            if result.method == codes.SINGLETON:
                self.counts["passed" if result.status == codes.EXACT
                            else "failed"] += 1
            else:
                self.counts["messages"] += result.work
            return result

        patches = [(orthogen, "_unit_draws", draws, counted_draws),
                   (orthogen, "random_orthogonal", sample, counted_sample),
                   (construct, "_mds_subsets", kernel, counted_kernel),
                   (codes.LinearCode, "distance", distance, counted_distance)]
        for owner, name, _, wrapper in patches:
            setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, original, _ in patches:
                setattr(owner, name, original)


def search_jobs(seeds: list[int]) -> list[tuple]:
    """(desc, n, k, d, seed) of every search job the given seeds build."""
    jobs = []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            inp = workloads.Inputs(seed, ROOT, Path(scratch))
            workloads.search_generate(inp)
            jobs += inp.data["jobs"]
    return jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[42])
    args = ap.parse_args(argv)
    ctxs = {desc: parse_field(desc) for desc, *_ in workloads.SEARCH_TARGETS}
    funnels: dict[tuple, Funnel] = {}
    for desc, n, k, d, seed in search_jobs(args.seeds):
        funnel = funnels.setdefault((desc, n, k, d), Funnel())
        funnel.counts["jobs"] += 1
        with funnel.installed():
            construct.search_random_lcd(ctxs[desc], n, k, d,
                                        workloads.BUDGET, seed)
    total, stops = Counter(), Counter()
    print("| target | " + " | ".join(COLUMNS) + " | light by row |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for (desc, n, k, d), funnel in funnels.items():
        total += funnel.counts
        stops += funnel.stops
        print(f"| [{n},{k},{d}]_F{desc} | " + row(funnel.counts, funnel.stops))
    print("| total | " + row(total, stops))
    return 0


def row(counts: Counter, stops: Counter) -> str:
    """The table cells of one target: the counts, then light samples by the
    row they stopped at."""
    by_row = " ".join(f"{i}:{stops[i]}" for i in sorted(stops)) or "-"
    cells = [f"{counts['passed']}/{counts['failed']}" if c == "certified"
             else str(counts[c]) for c in COLUMNS]
    return " | ".join(cells) + f" | {by_row} |"


if __name__ == "__main__":
    sys.exit(main())
