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

Each verb reads its files and options and prints and stores what the
constructions return; every record and its provenance is built in
``construct``.  All randomness sits behind --seed; reruns with the same
arguments write byte-identical record files.  Exit status: 0 on success, 1 when a
verification or a mandatory reproduction target fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import construct, fixtures, gf, orthogen
from .codes import EXACT, CodeRecord, LinearCode, RecordStore, singleton_class
from .errors import InvalidValue, LcdError, ParseError, UnsupportedShape
from .matfq import MatrixFq

# desk-scale subset of the bundled order table: each closes in seconds
DESK_SCALE_ORDERS = ((4, "3"), (4, "4"), (4, "5"), (4, "7"), (4, "8"),
                     (5, "3"))

# mandatory search targets: (field, n, k, d)
TABLE2_TARGETS = (("7", 6, 2, 5), ("4", 8, 4, 4), ("11", 5, 3, 3))

# projection demos: (tower, base, n, k, d, projected target d)
TABLE4_DEMO = ("4", 4, 1, 4, 5)
TABLE5_DEMO = ("27/3", 5, 1, 5, 9)


def _int_list(text: str, option: str) -> list[int]:
    """Comma-separated integers of an option value."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(f"--{option.replace('_', '-')} wants comma-separated "
                         f"integers, got {text!r}") from None


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _read_code(path: str) -> LinearCode:
    return LinearCode.from_generator(MatrixFq.from_text(
        Path(path).read_text()))


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


def _store_records(args: argparse.Namespace,
                   records: Sequence[CodeRecord]) -> None:
    if not args.store:
        return
    store = RecordStore(args.store)
    for rec in records:
        store.add(rec)
    store.save()


def _store_and_report(args: argparse.Namespace,
                      records: Sequence[CodeRecord]) -> None:
    for rec in records:
        print(_record_line(rec))
    _store_records(args, records)


# ---------------------------------------------------------------------------
# verbs: each takes the parsed and checked arguments

def cmd_order(args: argparse.Namespace) -> int:
    ctx = gf.parse_field(args.field)
    gens = orthogen.generator_set(ctx, args.n)
    order, complete = orthogen.group_closure_order(gens, args.cap)
    print(f"order={order} complete={_bool(complete)}")
    try:
        classical = orthogen.classical_orthogonal_order(args.n, ctx.q)
    except UnsupportedShape:
        classical = None
    reference = fixtures.group_orders().get((args.n, ctx.q))
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


def cmd_verify(args: argparse.Namespace) -> int:
    print(_verify_line(_read_code(args.matrix)))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    ctx = gf.parse_field(args.field)
    gens = orthogen.generator_set(ctx, args.n)
    A = orthogen.random_orthogonal(gens, args.walk_length, args.seed)
    sys.stdout.write(A.to_text())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    ctx = gf.parse_field(args.field)
    rec = construct.search_random_lcd(ctx, args.n, args.k, args.target_d,
                                      args.budget, args.seed,
                                      args.walk_length)
    if rec is None:
        print(f"no [{args.n},{args.k},>={args.target_d}]_F{ctx.q} "
              f"within {args.budget} trials")
        return 1
    _store_and_report(args, [rec])
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    rec = construct.extension_record(_read_code(args.matrix), args.lambdas,
                                     args.pair, args.grow)
    if rec is None:
        print("no growth row keeps the code LCD")
        return 1
    _store_and_report(args, [rec])
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    base = MatrixFq.from_text(Path(args.base).read_text())
    comps = [_read_code(p) for p in args.components.split(",")]
    _store_and_report(args, [construct.product_record(
        comps, base, args.scalars, args.blocks)])
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    code = _read_code(args.matrix)
    basis = args.basis or code.ctx.self_dual_basis()
    if basis is None:
        print(f"no self-dual basis over GF({code.ctx.descriptor})")
        return 1
    _store_and_report(args, [construct.projection_record(code, basis)])
    return 0


def cmd_rs_pipeline(args: argparse.Namespace) -> int:
    ctx = gf.parse_field(args.field)
    _store_and_report(args, construct.rs_pipeline(ctx, args.n, args.k,
                                                  args.k_primes))
    return 0


# ---------------------------------------------------------------------------
# scripted table reproductions

def _tables_1(args: argparse.Namespace) -> int:
    failures = 0
    for n, field in DESK_SCALE_ORDERS:
        ctx = gf.parse_field(field)
        gens = orthogen.generator_set(ctx, n)
        order, complete = orthogen.group_closure_order(gens, args.cap)
        ref_t, ref_o = fixtures.group_orders()[(n, ctx.q)]
        ok = complete and order == ref_t
        if not ok:
            failures += 1
        print(f"n={n} q={ctx.q} T={order} expected={ref_t} "
              f"O={ref_o} {'match' if ok else 'MISMATCH'}")
    return 1 if failures else 0


def _tables_2(args: argparse.Namespace) -> int:
    failures = 0
    records = []
    for field, n, k, d in TABLE2_TARGETS:
        ctx = gf.parse_field(field)
        rec = construct.search_random_lcd(ctx, n, k, d, args.budget,
                                          args.seed, args.walk_length)
        if rec is None or rec.d < d:
            failures += 1
            print(f"[{n},{k},{d}]_F{ctx.q} NOT FOUND")
            continue
        records.append(rec)
        print(f"{_record_line(rec)} trial={rec.provenance['trial']}")
    _store_records(args, records)
    return 1 if failures else 0


def _tables_3(args: argparse.Namespace) -> int:
    ex = fixtures.product_example()
    rec = construct.product_record(ex["components"], ex["base"],
                                   ex["scalars"])
    lcd = rec.code().is_lcd()
    cls = singleton_class(rec.n, rec.k, rec.d)
    exp = ex["expected"]
    ok = (rec.n == exp["n"] and rec.k == exp["k"]
          and rec.d_status == EXACT and rec.d == exp["d"]
          and lcd == exp["lcd"] and cls == exp["classification"])
    print(f"[{rec.n},{rec.k},{rec.d}]_F{ex['base'].ctx.q} "
          f"LCD={_bool(lcd)} class={cls} "
          f"{'match' if ok else 'MISMATCH'}")
    if not ok:
        return 1
    _store_and_report(args, [rec])
    return 0


def _projection_demo(args: argparse.Namespace, descriptor: str, n: int,
                     k: int, d: int, target: int,
                     seed_tries: int = 128) -> int:
    """Search an LCD [n,k,d] code over the tower, project it, and chase
    the published projected distance across derived sub-seeds."""
    ctx = gf.parse_field(descriptor)
    basis = ctx.self_dual_basis()
    if basis is None:
        print(f"no self-dual basis over GF({ctx.descriptor})")
        return 1
    best = None
    for offset in range(seed_tries):
        found = construct.search_random_lcd(ctx, n, k, d, args.budget,
                                            args.seed + offset,
                                            args.walk_length)
        if found is None:
            continue
        rec = construct.projection_record(found.code(), basis)
        if rec.d_status != EXACT:
            continue
        if best is None or rec.d > best[0].d:
            best = (rec, found.d, offset)
        if rec.d >= target:
            break
    if best is None:
        print(f"no [{n},{k},{d}]_F{ctx.q} found")
        return 1
    rec, found_d, offset = best
    verdict = "match" if rec.d >= target else "below target"
    print(f"[{n},{k},{found_d}]_F{ctx.q} -> "
          f"[{rec.n},{rec.k},{rec.d}]_F{ctx.base.q} "
          f"target={target} {verdict} seed_offset={offset}")
    _store_and_report(args, [rec])
    return 0


TABLES = {
    1: _tables_1,
    2: _tables_2,
    3: _tables_3,
    4: lambda args: _projection_demo(args, *TABLE4_DEMO),
    5: lambda args: _projection_demo(args, *TABLE5_DEMO),
}


def cmd_tables(args: argparse.Namespace) -> int:
    return TABLES[args.which](args)


# ---------------------------------------------------------------------------
# argument plumbing

# the options several verbs share, each with its one default
SHARED_OPTIONS = {
    "--field": dict(required=True,
                    help="field descriptor: p, p^m, or q^l/base"),
    "--n": dict(type=int, required=True),
    "--k": dict(type=int, required=True),
    "--seed": dict(type=int, default=0),
    "--store": dict(help="JSONL record store path"),
    "--target-d": dict(type=int, required=True),
    "--budget": dict(type=int, default=100_000),
    "--cap": dict(type=int, default=orthogen.DEFAULT_CLOSURE_CAP),
    "--walk-length": dict(type=int, default=orthogen.DEFAULT_WALK_LENGTH),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lcdkit",
        description="construct, search for, and verify LCD codes")
    sub = top.add_subparsers(dest="verb", required=True)

    def shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **SHARED_OPTIONS[flag])

    p = sub.add_parser("order", help="closure order vs reference value")
    shared(p, "--field", "--n", "--cap")

    p = sub.add_parser("verify", help="report parameters of a matrix file")
    p.add_argument("matrix")

    p = sub.add_parser("tables", help="scripted reproduction runs")
    p.add_argument("which", type=int, choices=TABLES)
    shared(p, "--seed", "--store", "--budget", "--cap", "--walk-length")

    p = sub.add_parser("sample", help="one random orthogonal matrix")
    shared(p, "--field", "--n", "--seed", "--walk-length")

    p = sub.add_parser("search", help="randomized LCD search")
    shared(p, "--field", "--n", "--k", "--seed", "--store", "--target-d",
           "--budget", "--walk-length")

    p = sub.add_parser("extend", help="two-column extension")
    p.add_argument("matrix")
    shared(p, "--store")
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
    shared(p, "--store")

    p = sub.add_parser("project", help="subfield projection")
    p.add_argument("matrix")
    shared(p, "--store")
    p.add_argument("--basis", help="comma-separated basis codes")

    p = sub.add_parser("rs-pipeline", help="cyclic route to MDS LCD codes")
    shared(p, "--field", "--n", "--k", "--store")
    p.add_argument("--k-primes", help="comma-separated derived dimensions")
    return top


def _check(args: argparse.Namespace) -> None:
    """Raise the usage errors argparse cannot express, and turn the list
    options into integers, so a malformed one is a usage error too."""
    opts = vars(args)
    for name in ("target_d", "budget", "cap", "walk_length"):
        if opts.get(name, 1) < 1:
            raise InvalidValue(f"--{name.replace('_', '-')} must be positive")
    if opts.get("n", 1) < 1:
        raise InvalidValue("--n must be positive")
    if "k" in opts:
        if args.k < 0:
            raise InvalidValue("dimensions must be positive")
        if args.k > args.n:
            raise InvalidValue(f"--k {args.k} exceeds --n {args.n}")
        if args.verb == "search" and args.k < 1:
            raise InvalidValue("--k must be positive")
    if "field" in opts:
        gf.parse_field(args.field)
    for name in ("lambdas", "pair", "scalars", "basis", "k_primes"):
        if opts.get(name) is not None:
            opts[name] = _int_list(opts[name], name)
    if opts.get("blocks") is not None:
        opts["blocks"] = [tuple(_int_list(part, "blocks"))
                          for part in opts["blocks"].split(";")]


VERBS = {
    "order": cmd_order,
    "verify": cmd_verify,
    "tables": cmd_tables,
    "sample": cmd_sample,
    "search": cmd_search,
    "extend": cmd_extend,
    "product": cmd_product,
    "project": cmd_project,
    "rs-pipeline": cmd_rs_pipeline,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
    except LcdError as exc:
        print(f"lcdkit: {exc}", file=sys.stderr)
        return 2
    try:
        return VERBS[args.verb](args)
    except (LcdError, OSError) as exc:
        print(f"lcdkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
