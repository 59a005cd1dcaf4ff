"""Fit the cost constants that LinearCode.distance prices its three
strategies with, on the benchmark's certify codes and the RS pipeline's.

    PYTHONPATH=src python3 tools/fit_distance_costs.py [--seeds 42 1234]

For every code the certify workload builds from the given seeds (GRS,
the product example, Hamming, random codes on the enumeration side and
high-rate random codes on the subset side), and for the cyclic and
derived codes of the build workload's ``rs-pipeline`` runs, it times
message enumeration, the column-subset scan (the dual included) and,
where the lightest generator row admits an MDS code, the Singleton
certificate on the generator and on the parity-check matrix (the dual
included), each on its own, best of a few runs.  It fits

    enumeration  ns = a * messages + b * leaves
    subsets      ns = c + e * rows(H) * leaf subsets charged
    singleton    ns = s * C(n, r) * r          (r rows of the side tested)

by least squares on the relative error, the last on the MDS codes and
both sides, prints the five constants next to the ones pinned in
lcdkit.codes, and a table of each code's times, the strategy and side
the pinned constants choose, and the fastest that answers (a
certificate that finds a dependent set hands over to another strategy).

It then times threshold calls, distance(at_least=t), on the shapes of
lcdbench/workloads.SEARCH_TARGETS: k-row subsets of seeded uniform
orthogonal samples, as search scans them, split into hits (d >= t) and
misses.  For each it prints the mean time per call of enumeration with
at_least = t and, when t = n - k + 1, of the Singleton certificate on G,
each next to its estimate from the pinned constants, and the strategy
the pinned constants choose.  Standard library only; it reads the
workload definitions under lcdbench/ and writes nothing.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from itertools import combinations
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lcdbench")]

import workloads  # noqa: E402
from lcdkit import codes, construct, orthogen  # noqa: E402
from lcdkit.gf import parse_field  # noqa: E402
from lcdkit.matfq import MatrixFq  # noqa: E402

# enumerations past this many messages are not timed (seconds each)
MAX_MESSAGES = 1 << 22
# threshold calls timed per search target, of hits and of misses each
THRESHOLD_CODES = 40


def best_time(fn, rounds: int = 5, cap_s: float = 1.0) -> tuple[float, object]:
    """Least wall time over up to ``rounds`` calls, stopping early once
    their total passes cap_s; and the last call's result."""
    best, total, out = float("inf"), 0.0, None
    for _ in range(rounds):
        start = time.perf_counter()
        out = fn()
        took = time.perf_counter() - start
        best, total = min(best, took), total + took
        if total > cap_s:
            break
    return best, out


def fit2(xs: list[tuple[float, float]], ys: list[float]) -> tuple[float, float]:
    """(u, v) minimising the sum of ((u x1 + v x2 - y) / y)^2."""
    s11 = s12 = s22 = t1 = t2 = 0.0
    for (x1, x2), y in zip(xs, ys):
        x1, x2 = x1 / y, x2 / y
        s11, s12, s22 = s11 + x1 * x1, s12 + x1 * x2, s22 + x2 * x2
        t1, t2 = t1 + x1, t2 + x2
    det = s11 * s22 - s12 * s12
    return (t1 * s22 - t2 * s12) / det, (s11 * t2 - s12 * t1) / det


def fit1(xs: list[float], ys: list[float]) -> float:
    """u minimising the sum of ((u x - y) / y)^2."""
    return (sum(x / y for x, y in zip(xs, ys))
            / sum((x / y) ** 2 for x, y in zip(xs, ys)))


def certify_codes(seeds: list[int]) -> list[tuple[str, object]]:
    """(name, build) for each seed's certify codes, build() making a fresh
    LinearCode as the workload makes it."""
    out = []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            inp = workloads.Inputs(seed, ROOT, Path(scratch))
            workloads.certify_generate(inp)
            for spec in inp.data["codes"]:
                ctx = parse_field(spec["field"])
                G = MatrixFq.from_rows(ctx, spec["rows"])
                out.append((f"{spec['name']} s{seed}",
                            lambda G=G: codes.LinearCode.from_generator(G)))
    return out


def rs_codes() -> list[tuple[str, object]]:
    """(name, build) for the cyclic and derived codes of the build
    workload's rs-pipeline runs, kept as the pipeline builds them."""
    out = []
    for desc, n, k, k_primes in workloads.BUILD_RS:
        ctx = parse_field(desc)
        cyclic = construct.cyclic_mds_self_orthogonal(ctx, n, k)
        made = [(f"cyclic[{n},{k}]_F{desc}", cyclic)]
        made += [(f"derived[{n - k},{kp}]_F{desc}",
                  construct.mds_lcd_from_self_orthogonal(cyclic, kp))
                 for kp in k_primes]
        out += [(name, lambda G=code.G: codes.LinearCode.from_basis(
                    G, verify_rank=False)) for name, code in made]
    return out


def search_subsets(desc: str, n: int, k: int, t: int,
                   seeds: list[int]) -> tuple[list, list]:
    """(hits, misses): up to THRESHOLD_CODES k-row subsets each of the
    seeded uniform samples search draws for the target, as generator
    matrices, hits having d >= t."""
    ctx = parse_field(desc)
    found: tuple[list, list] = ([], [])
    for seed in seeds:
        for trial in range(1000):
            A = orthogen.random_orthogonal(
                ctx, n, construct._trial_seed(seed, trial), min_weight=t)
            if A is None:
                continue
            for subset in combinations(range(n), k):
                G = A.take_rows(subset)
                w, _ = codes._distance_by_enumeration(G.rows(), ctx, n, t)
                kind = found[0] if w >= t else found[1]
                if len(kind) < THRESHOLD_CODES:
                    kind.append(G)
            if all(len(kind) == THRESHOLD_CODES for kind in found):
                return found
    return found


def threshold_table(seeds: list[int]) -> None:
    """Print the per-call times of threshold calls on the search shapes."""
    budget = codes.DEFAULT_DISTANCE_BUDGET
    print("| target | kind | calls | enumeration | estimate | singleton G "
          "| estimate | chosen |")
    print("|---" * 8 + "|")
    for desc, n, k, t, _ in workloads.SEARCH_TARGETS:
        q = parse_field(desc).q
        messages = (q ** k - 1) // (q - 1)
        estimates = {"enumeration": (codes._ENUM_MESSAGE_NS * messages
                                     + codes._ENUM_LEAF_NS
                                     * (messages // q + 1)),
                     "singleton G": (codes._SINGLETON_SUBSET_ROW_NS
                                     * comb(n, k) * k)}
        for label, made in zip(("hits", "misses"),
                               search_subsets(desc, n, k, t, seeds)):
            if not made:
                continue
            times = {"enumeration": best_time(lambda: [
                codes._distance_by_enumeration(G.rows(), G.ctx, n, t)
                for G in made])[0]}
            if t == n - k + 1:
                times["singleton G"] = best_time(lambda: [
                    codes._every_column_subset_independent(G)
                    for G in made])[0]
            cells = []
            for method in ("enumeration", "singleton G"):
                if method in times:
                    cells += [f"{times[method] / len(made) * 1e6:.1f} us",
                              f"{estimates[method] / 1e3:.1f} us"]
                else:
                    cells += ["-", "-"]
            fallback, side = codes.LinearCode.from_basis(
                made[0], verify_rank=False)._plan(budget, t)
            chosen = f"singleton {side}" if side else fallback
            print(f"| [{n},{k},{t}]_F{desc} | {label} | {len(made)} | "
                  + " | ".join(cells) + f" | {chosen} |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[42, 1234])
    args = ap.parse_args(argv)
    budget = codes.DEFAULT_DISTANCE_BUDGET
    rows, enum_x, enum_y, scan_x, scan_y, cert_x, cert_y = ([] for _ in range(7))
    for name, build in certify_codes(args.seeds) + rs_codes():
        code = build()
        q, n, k = code.ctx.q, code.n, code.k
        messages = (q ** k - 1) // (q - 1)
        times = {}
        if q ** k <= budget and messages <= MAX_MESSAGES:
            times["enumeration"], (_, seen) = best_time(
                lambda: codes._distance_by_enumeration(code.G.rows(),
                                                       code.ctx, n))
            enum_x.append((seen, seen // q + 1))
            enum_y.append(times["enumeration"] * 1e9)
        times["subsets"], (_, exact, leaves) = best_time(
            lambda: codes._distance_by_column_subsets(build().dual().G, n,
                                                      budget))
        scan_x.append((1, (n - k) * leaves))
        scan_y.append(times["subsets"] * 1e9)
        mds, failed = False, {}
        if min(code.G.row_weights()) > n - k:
            for side, r, matrix in (("G", k, lambda: build().G),
                                    ("H", n - k, lambda: build().dual().G)):
                took, mds = best_time(
                    lambda: codes._every_column_subset_independent(matrix()))
                if mds:
                    times[f"singleton {side}"] = took
                    cert_x.append(comb(n, r) * r)
                    cert_y.append(took * 1e9)
                else:
                    failed[f"singleton {side}"] = took
        chosen, side = code._plan(budget, 0)
        if side:
            chosen = (f"singleton {side}" if mds
                      else f"singleton {side}, then {chosen}")
        rows.append((name, times, failed, chosen))
    a, b = fit2(enum_x, enum_y)
    c, e = fit2(scan_x, scan_y)
    s = fit1(cert_x, cert_y)
    print("constant                  pinned     fitted")
    for label, pinned, fitted in (
            ("_ENUM_MESSAGE_NS", codes._ENUM_MESSAGE_NS, a),
            ("_ENUM_LEAF_NS", codes._ENUM_LEAF_NS, b),
            ("_SUBSETS_FIXED_NS", codes._SUBSETS_FIXED_NS, c),
            ("_SUBSETS_LEAF_ROW_NS", codes._SUBSETS_LEAF_ROW_NS, e),
            ("_SINGLETON_SUBSET_ROW_NS", codes._SINGLETON_SUBSET_ROW_NS, s)):
        print(f"{label:<24} {pinned:>8} {fitted:>10.0f}")
    print()
    columns = ("enumeration", "subsets", "singleton G", "singleton H")
    print("| code | " + " | ".join(columns) + " | chosen | fastest |")
    print("|---" * (len(columns) + 3) + "|")
    for name, times, failed, chosen in rows:
        cells = [f"{times[col] * 1e3:.3f} ms" if col in times
                 else f"{failed[col] * 1e3:.3f} ms, not MDS" if col in failed
                 else "-" for col in columns]
        fastest = min(times, key=times.get)
        print(f"| {name} | " + " | ".join(cells) + f" | {chosen} | {fastest} |")
    print()
    threshold_table(args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
