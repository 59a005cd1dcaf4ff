"""Fit the cost constants that LinearCode.distance prices message
enumeration and the column-subset scan with, on the benchmark's certify
codes and the RS pipeline's, and time the information sets and the
Singleton certificate beside them.

    PYTHONPATH=src python3 tools/fit_distance_costs.py [--seeds 42 1234]

For every code the certify workload builds from the given seeds (GRS,
the product example, Hamming, random codes on the enumeration side and
high-rate random codes on the subset side), and for the cyclic and
derived codes of the build workload's ``rs-pipeline`` runs, it times
message enumeration and the information sets (a hand-over to
enumeration included), the column-subset scan (the dual included) and,
where the lightest generator row admits an MDS code, the Singleton
certificate on the generator and on the parity-check matrix (the dual
included), each on its own, best of a few runs.  It fits

    enumeration  ns = a * messages + b * leaves
    subsets      ns = c + e * rows(H) * leaf subsets charged

by least squares on the relative error, prints the four constants next
to the ones pinned in lcdkit.codes, and a table of each code's times,
the strategy and side that LinearCode._plan chooses, and the fastest
that answers (a certificate that finds a dependent set hands over to
another strategy).  Neither the certificate nor the information sets is
priced in time: _plan runs the certificate by rule and picks the
information sets by their predicted message count, and their columns
show where those rules are slower than the alternative.  Standard
library only; it reads the workload definitions under lcdbench/ and
writes nothing.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "lcdbench")]

import workloads  # noqa: E402
from lcdkit import codes, construct  # noqa: E402
from lcdkit.gf import parse_field  # noqa: E402
from lcdkit.matfq import MatrixFq  # noqa: E402

# enumerations past this many messages are not timed (seconds each)
MAX_MESSAGES = 1 << 22


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[42, 1234])
    args = ap.parse_args(argv)
    budget = codes.DEFAULT_DISTANCE_BUDGET
    rows, enum_x, enum_y, scan_x, scan_y = ([] for _ in range(5))
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
            times["information_sets"] = best_time(
                lambda: codes._distance_by_information_sets(
                    code.G.rows(), code.ctx, n))[0]
        times["subsets"], (_, exact, leaves) = best_time(
            lambda: codes._distance_by_column_subsets(build().dual().G, n,
                                                      budget))
        scan_x.append((1, (n - k) * leaves))
        scan_y.append(times["subsets"] * 1e9)
        mds, failed = False, {}
        if min(code.G.row_weights()) > n - k:
            for side, matrix in (("G", lambda: build().G),
                                 ("H", lambda: build().dual().G)):
                took, mds = best_time(
                    lambda: codes._every_column_subset_independent(
                        code.ctx, matrix().rows()))
                if mds:
                    times[f"singleton {side}"] = took
                else:
                    failed[f"singleton {side}"] = took
        chosen, side = code._plan(budget, 0)
        if side:
            chosen = (f"singleton {side}" if mds
                      else f"singleton {side}, then {chosen}")
        rows.append((name, times, failed, chosen))
    a, b = fit2(enum_x, enum_y)
    c, e = fit2(scan_x, scan_y)
    print("constant                  pinned     fitted")
    for label, pinned, fitted in (
            ("_ENUM_MESSAGE_NS", codes._ENUM_MESSAGE_NS, a),
            ("_ENUM_LEAF_NS", codes._ENUM_LEAF_NS, b),
            ("_SUBSETS_FIXED_NS", codes._SUBSETS_FIXED_NS, c),
            ("_SUBSETS_LEAF_ROW_NS", codes._SUBSETS_LEAF_ROW_NS, e)):
        print(f"{label:<24} {pinned:>8} {fitted:>10.0f}")
    print()
    columns = ("enumeration", "information_sets", "subsets", "singleton G",
               "singleton H")
    print("| code | " + " | ".join(columns) + " | chosen | fastest |")
    print("|---" * (len(columns) + 3) + "|")
    for name, times, failed, chosen in rows:
        cells = [f"{times[col] * 1e3:.3f} ms" if col in times
                 else f"{failed[col] * 1e3:.3f} ms, not MDS" if col in failed
                 else "-" for col in columns]
        fastest = min(times, key=times.get)
        print(f"| {name} | " + " | ".join(cells) + f" | {chosen} | {fastest} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
