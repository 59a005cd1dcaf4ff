"""Command-line front end.

Verbs:

  order        closure order of the generated orthogonal subgroup, with
               the classical group order and the bundled reference value
  verify       report n, k, hull, LCD-ness, distance for a matrix file
  tables       scripted reproduction runs (1-5) at desk scale
  sample       one seeded random orthogonal matrix
  search       randomized LCD search with target distance
  extend       two-column extension of a code file, optional growth row
  product      matrix-product code from component files
  project      subfield projection through a self-dual basis
  rs-pipeline  cyclic self-orthogonal route to MDS LCD codes

All randomness sits behind --seed; reruns with the same arguments write
byte-identical record files.  Exit status: 0 on success, 1 when a
verification or a mandatory reproduction target fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import construct, fixtures, gf, orthogen
from .codes import EXACT, CodeRecord, LinearCode, RecordStore
from .errors import LcdError, ParseError, UnsupportedShape
from .matfq import MatrixFq

KNOWN_TABLES = (1, 2, 3, 4, 5)

# desk-scale subset of the bundled order table: each closes in seconds
DESK_SCALE_ORDERS = ((4, "3"), (4, "4"), (4, "5"), (4, "7"), (4, "8"),
                     (5, "3"))

# mandatory search targets: (field, n, k, d)
TABLE2_TARGETS = (("7", 6, 2, 5), ("4", 8, 4, 4), ("11", 5, 3, 3))

# projection demos: (tower, base, n, k, d, projected target d)
TABLE4_DEMO = ("4", 4, 1, 4, 5)
TABLE5_DEMO = ("27/3", 5, 1, 5, 9)


# the verbs whose --n is a matrix or code length
N_VERBS = frozenset({"order", "sample", "search", "rs-pipeline"})


@dataclass
class RunConfig:
    """Validated bag of common knobs; argparse fills it per verb."""

    verb: str
    field: Optional[str] = None
    n: int = 0
    k: int = 0
    target_d: int = 1
    budget: int = 100_000
    seed: int = 0
    cap: int = orthogen.DEFAULT_CLOSURE_CAP
    walk_length: int = orthogen.DEFAULT_WALK_LENGTH
    store: Optional[str] = None

    def __post_init__(self):
        for name in ("target_d", "budget", "cap", "walk_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.verb in N_VERBS and self.n < 1:
            raise ValueError("--n must be positive")
        if self.k < 0:
            raise ValueError("dimensions must be positive")
        if self.k > self.n:
            raise ValueError(f"--k {self.k} exceeds --n {self.n}")
        if self.verb == "search" and self.k < 1:
            raise ValueError("--k must be positive")
        if self.field is not None:
            gf.parse_field(self.field)


def _int_list(text: Optional[str], option: str) -> Optional[list[int]]:
    """Comma-separated integers of an option value; None when absent."""
    if text is None:
        return None
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(f"--{option.replace('_', '-')} wants comma-separated "
                         f"integers, got {text!r}") from None


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _open_store(path: Optional[str]) -> Optional[RecordStore]:
    return RecordStore(Path(path)) if path else None


def _record_line(rec: CodeRecord) -> str:
    status = "" if rec.d_status == EXACT else ">="
    q = gf.parse_field(rec.field).q
    return f"[{rec.n},{rec.k},{status}{rec.d}]_F{q} tag={rec.tag}"


def _verify_line(code: LinearCode) -> str:
    dist = code.distance()
    cls = code.classify() if dist.status == EXACT else "unknown"
    return (f"n={code.n} k={code.k} hull={code.hull_dim()} "
            f"LCD={_bool(code.is_lcd())} d={dist.value} "
            f"d_status={dist.status} class={cls}")


# ---------------------------------------------------------------------------
# verbs

def cmd_order(cfg: RunConfig) -> int:
    ctx = gf.parse_field(cfg.field)
    gens = orthogen.generator_set(ctx, cfg.n)
    order, complete = orthogen.group_closure_order(gens, cfg.cap)
    print(f"order={order} complete={_bool(complete)}")
    try:
        classical = orthogen.classical_orthogonal_order(cfg.n, ctx.q)
    except UnsupportedShape:
        classical = None
    reference = fixtures.group_orders().get((cfg.n, ctx.q))
    if classical is not None:
        print(f"classical={classical}")
    if not complete:
        return 0
    if reference is None:
        print("fixture=none")
        return 0
    ref_t, ref_o = reference
    o_value = classical if classical is not None else ref_o
    ok = order == ref_t and o_value == ref_o
    print(f"T={order} O={o_value} fixture={'match' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_verify(path: str) -> int:
    code = LinearCode.from_generator(MatrixFq.from_text(
        Path(path).read_text()))
    print(_verify_line(code))
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    ctx = gf.parse_field(cfg.field)
    gens = orthogen.generator_set(ctx, cfg.n)
    A = orthogen.random_orthogonal(gens, cfg.walk_length, cfg.seed)
    sys.stdout.write(A.to_text())
    return 0


def cmd_search(cfg: RunConfig) -> int:
    ctx = gf.parse_field(cfg.field)
    rec = construct.search_random_lcd(ctx, cfg.n, cfg.k, cfg.target_d,
                                      cfg.budget, cfg.seed,
                                      cfg.walk_length)
    if rec is None:
        print(f"no [{cfg.n},{cfg.k},>={cfg.target_d}]_F{ctx.q} "
              f"within {cfg.budget} trials")
        return 1
    _store_and_report(cfg, [rec])
    return 0


def _store_records(cfg: RunConfig, records: Sequence[CodeRecord]) -> None:
    store = _open_store(cfg.store)
    if store is None:
        return
    for rec in records:
        store.add(rec)
    store.save()


def _store_and_report(cfg: RunConfig, records: Sequence[CodeRecord]) -> None:
    for rec in records:
        print(_record_line(rec))
    _store_records(cfg, records)


def cmd_extend(cfg: RunConfig, path: str, lambdas: Optional[list[int]],
               pair: Optional[list[int]], grow: bool) -> int:
    code = LinearCode.from_generator(MatrixFq.from_text(
        Path(path).read_text()))
    lam = lambdas or [1] * code.k
    pr = tuple(pair) if pair else None
    ext = construct.extend_by_two(code, lam, pr)
    used_pair = pr or code.ctx.isotropic_pair()
    added_row = None
    if grow:
        grown = construct.extend_dimension(ext)
        if grown is None:
            print("no growth row keeps the code LCD")
            return 1
        added_row = [grown.G.rows()[-1][-2], grown.G.rows()[-1][-1]]
        ext = grown
    provenance = {
        "kind": "extended",
        "base": code.G.to_text(),
        "pair": list(used_pair),
        "lambdas": lam,
        "added_row": added_row,
    }
    rec = CodeRecord.from_code(ext, "extended", provenance)
    _store_and_report(cfg, [rec])
    return 0


def cmd_product(cfg: RunConfig, base_path: str, lam: list[int],
                component_paths: Sequence[str],
                blk: Optional[list[tuple[int, ...]]]) -> int:
    base = MatrixFq.from_text(Path(base_path).read_text())
    comps = [LinearCode.from_generator(MatrixFq.from_text(
        Path(p).read_text())) for p in component_paths]
    code = construct.mplcd_build(comps, base, lam, blk)
    _store_and_report(cfg, [_product_record(code, comps, base, lam, blk)])
    return 0


def _product_record(code: LinearCode, comps: Sequence[LinearCode],
                    base: MatrixFq, lam: Sequence[int],
                    blk: Optional[list[tuple[int, ...]]] = None) -> CodeRecord:
    """The record of code = mplcd_build(comps, base, lam, blk)."""
    a_bar = construct.scaled_orthogonal(base, lam, blk)
    provenance = {
        "kind": "matrix_product",
        "components": [c.G.to_text() for c in comps],
        "a_bar": a_bar.to_text(),
    }
    return CodeRecord.from_code(code, "matrix_product", provenance)


def cmd_project(cfg: RunConfig, path: str,
                basis: Optional[list[int]]) -> int:
    code = LinearCode.from_generator(MatrixFq.from_text(
        Path(path).read_text()))
    if basis is None:
        basis = code.ctx.self_dual_basis()
        if basis is None:
            print(f"no self-dual basis over GF({code.ctx.descriptor})")
            return 1
    projected = construct.project_to_subfield(code, basis)
    _store_and_report(cfg, [_projection_record(code, projected, basis)])
    return 0


def _projection_record(source: LinearCode, projected: LinearCode,
                       basis: list[int]) -> CodeRecord:
    """The record of projected = project_to_subfield(source, basis)."""
    provenance = {
        "kind": "projection",
        "source": source.G.to_text(),
        "basis": basis,
    }
    return CodeRecord.from_code(projected, "projection", provenance)


def cmd_rs_pipeline(cfg: RunConfig, k_primes: Optional[list[int]]) -> int:
    ctx = gf.parse_field(cfg.field)
    records = construct.rs_pipeline(ctx, cfg.n, cfg.k, k_primes)
    _store_and_report(cfg, records)
    return 0


# ---------------------------------------------------------------------------
# scripted table reproductions

def _tables_1(cfg: RunConfig) -> int:
    failures = 0
    for n, field in DESK_SCALE_ORDERS:
        ctx = gf.parse_field(field)
        gens = orthogen.generator_set(ctx, n)
        order, complete = orthogen.group_closure_order(gens, cfg.cap)
        ref_t, ref_o = fixtures.group_orders()[(n, ctx.q)]
        ok = complete and order == ref_t
        if not ok:
            failures += 1
        print(f"n={n} q={ctx.q} T={order} expected={ref_t} "
              f"O={ref_o} {'match' if ok else 'MISMATCH'}")
    return 1 if failures else 0


def _tables_2(cfg: RunConfig) -> int:
    failures = 0
    records = []
    for field, n, k, d in TABLE2_TARGETS:
        ctx = gf.parse_field(field)
        rec = construct.search_random_lcd(ctx, n, k, d, cfg.budget,
                                          cfg.seed, cfg.walk_length)
        if rec is None or rec.d < d:
            failures += 1
            print(f"[{n},{k},{d}]_F{ctx.q} NOT FOUND")
            continue
        records.append(rec)
        print(f"{_record_line(rec)} trial={rec.provenance['trial']}")
    _store_records(cfg, records)
    return 1 if failures else 0


def _tables_3(cfg: RunConfig) -> int:
    ex = fixtures.product_example()
    code = construct.mplcd_build(ex["components"], ex["base"],
                                 ex["scalars"])
    dist = code.distance()
    exp = ex["expected"]
    ok = (code.n == exp["n"] and code.k == exp["k"]
          and dist.status == EXACT and dist.value == exp["d"]
          and code.is_lcd() == exp["lcd"]
          and code.classify() == exp["classification"])
    print(f"[{code.n},{code.k},{dist.value}]_F{code.ctx.q} "
          f"LCD={_bool(code.is_lcd())} class={code.classify()} "
          f"{'match' if ok else 'MISMATCH'}")
    if not ok:
        return 1
    _store_and_report(cfg, [_product_record(code, ex["components"],
                                            ex["base"], ex["scalars"])])
    return 0


def _projection_demo(cfg: RunConfig, descriptor: str, n: int, k: int,
                     d: int, target: int, seed_tries: int = 128) -> int:
    """Search an LCD [n,k,d] code over the tower, project it, and chase
    the published projected distance across derived sub-seeds."""
    ctx = gf.parse_field(descriptor)
    basis = ctx.self_dual_basis()
    if basis is None:
        print(f"no self-dual basis over GF({ctx.descriptor})")
        return 1
    best = None
    for offset in range(seed_tries):
        rec = construct.search_random_lcd(ctx, n, k, d, cfg.budget,
                                          cfg.seed + offset,
                                          cfg.walk_length)
        if rec is None:
            continue
        source = rec.code()
        projected = construct.project_to_subfield(source, basis)
        dist = projected.distance()
        if dist.status != EXACT:
            continue
        entry = (dist.value, offset, rec, source, projected)
        if best is None or entry[0] > best[0]:
            best = entry
        if dist.value >= target:
            break
    if best is None:
        print(f"no [{n},{k},{d}]_F{ctx.q} found")
        return 1
    value, offset, rec, source, projected = best
    verdict = "match" if value >= target else "below target"
    print(f"[{n},{k},{rec.d}]_F{ctx.q} -> "
          f"[{projected.n},{projected.k},{value}]_F{ctx.base.q} "
          f"target={target} {verdict} seed_offset={offset}")
    _store_and_report(cfg, [_projection_record(source, projected, basis)])
    return 0


def _tables_4(cfg: RunConfig) -> int:
    return _projection_demo(cfg, *TABLE4_DEMO)


def _tables_5(cfg: RunConfig) -> int:
    return _projection_demo(cfg, *TABLE5_DEMO)


def cmd_tables(cfg: RunConfig, which: int) -> int:
    return {1: _tables_1, 2: _tables_2, 3: _tables_3,
            4: _tables_4, 5: _tables_5}[which](cfg)


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lcdkit",
        description="construct, search for, and verify LCD codes")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, *, field=False, n=False, k=False):
        if field:
            p.add_argument("--field", required=True,
                           help="field descriptor: p, p^m, or q^l/base")
        if n:
            p.add_argument("--n", type=int, required=True)
        if k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--store", help="JSONL record store path")

    p = sub.add_parser("order", help="closure order vs reference value")
    common(p, field=True, n=True)
    p.add_argument("--cap", type=int, default=orthogen.DEFAULT_CLOSURE_CAP)

    p = sub.add_parser("verify", help="report parameters of a matrix file")
    p.add_argument("matrix")

    p = sub.add_parser("tables", help="scripted reproduction runs")
    p.add_argument("which", type=int, choices=KNOWN_TABLES)
    common(p)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--cap", type=int, default=orthogen.DEFAULT_CLOSURE_CAP)
    p.add_argument("--walk-length", type=int,
                   default=orthogen.DEFAULT_WALK_LENGTH)

    p = sub.add_parser("sample", help="one random orthogonal matrix")
    common(p, field=True, n=True)
    p.add_argument("--walk-length", type=int,
                   default=orthogen.DEFAULT_WALK_LENGTH)

    p = sub.add_parser("search", help="randomized LCD search")
    common(p, field=True, n=True, k=True)
    p.add_argument("--target-d", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--walk-length", type=int,
                   default=orthogen.DEFAULT_WALK_LENGTH)

    p = sub.add_parser("extend", help="two-column extension")
    p.add_argument("matrix")
    common(p)
    p.add_argument("--lambdas", help="comma-separated scalars, one per row")
    p.add_argument("--pair", help="isotropic pair a,b (codes)")
    p.add_argument("--grow", action="store_true",
                   help="append a dimension-raising row")

    p = sub.add_parser("product", help="matrix-product code")
    p.add_argument("--base", required=True, help="orthogonal matrix file")
    p.add_argument("--scalars", required=True)
    p.add_argument("--components", required=True,
                   help="comma-separated generator files")
    p.add_argument("--blocks", help="rotation blocks a,b;c,d;...")
    common(p)

    p = sub.add_parser("project", help="subfield projection")
    p.add_argument("matrix")
    common(p)
    p.add_argument("--basis", help="comma-separated basis codes")

    p = sub.add_parser("rs-pipeline", help="cyclic route to MDS LCD codes")
    common(p, field=True, n=True, k=True)
    p.add_argument("--k-primes", help="comma-separated derived dimensions")
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            verb=args.verb,
            field=getattr(args, "field", None),
            n=getattr(args, "n", 0),
            k=getattr(args, "k", 0),
            target_d=getattr(args, "target_d", 1),
            budget=getattr(args, "budget", 100_000),
            seed=getattr(args, "seed", 0),
            cap=getattr(args, "cap", orthogen.DEFAULT_CLOSURE_CAP),
            walk_length=getattr(args, "walk_length",
                                orthogen.DEFAULT_WALK_LENGTH),
            store=getattr(args, "store", None),
        )
        # option lists are parsed here so a malformed one is a usage error
        ints = {name: _int_list(getattr(args, name, None), name)
                for name in ("lambdas", "pair", "scalars", "basis",
                             "k_primes")}
        blocks = getattr(args, "blocks", None)
        if blocks is not None:
            blocks = [tuple(_int_list(part, "blocks"))
                      for part in blocks.split(";")]
    except (ValueError, LcdError) as exc:
        print(f"lcdkit: {exc}", file=sys.stderr)
        return 2
    try:
        if args.verb == "order":
            return cmd_order(cfg)
        if args.verb == "verify":
            return cmd_verify(args.matrix)
        if args.verb == "tables":
            return cmd_tables(cfg, args.which)
        if args.verb == "sample":
            return cmd_sample(cfg)
        if args.verb == "search":
            return cmd_search(cfg)
        if args.verb == "extend":
            return cmd_extend(cfg, args.matrix, ints["lambdas"],
                              ints["pair"], args.grow)
        if args.verb == "product":
            return cmd_product(cfg, args.base, ints["scalars"],
                               args.components.split(","), blocks)
        if args.verb == "project":
            return cmd_project(cfg, args.matrix, ints["basis"])
        if args.verb == "rs-pipeline":
            return cmd_rs_pipeline(cfg, ints["k_primes"])
        raise AssertionError(args.verb)
    except LcdError as exc:
        print(f"lcdkit: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"lcdkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
