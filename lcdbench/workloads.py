"""The four workloads: seeded inputs, set-up, and checked jobs.

Each workload has two halves.  ``generate`` runs before anything of
lcdkit is imported: it turns the seed into plain data (field descriptors,
matrices as integer rows, argument lists, input files) and computes every
expected value with ``oracle``.  ``setup`` receives a freshly imported
lcdkit and builds the field contexts, flat tables, generator sets and
fixtures the jobs use, then returns the job list.  A job is one call into
lcdkit; its check compares the output with the expected values, or with
properties the method guarantees, and raises ``CheckFailed`` on any
difference.

Every pass rebuilds its ``LinearCode`` objects from their matrices, so the
distance a code caches never answers a timed call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracle
from oracle import expect, field_for

BUDGET = 100_000  # search trial budget, the CLI default


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # runs back to back in each pass, each one timed and checked: a job of a
    # few milliseconds gets enough samples for a steady median
    repeat: int = 1


@dataclass
class Prepared:
    jobs: list[Job]
    begin_pass: Callable[[], None] = lambda: None


@dataclass
class Inputs:
    seed: int
    root: Path
    scratch: Path
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared helpers

def q_of(desc: str) -> int:
    """Field order from a descriptor: "7", "3^2", "27/3" or "9^3/3"."""
    left = desc.split("/", 1)[0]
    if "^" in left:
        b, e = left.split("^", 1)
        return int(b) ** int(e)
    return int(left)


def descriptor(q: int) -> str:
    """lcdkit's descriptor for the flat field of order q."""
    p, m = oracle.split_prime_power(q)
    return str(p) if m == 1 else f"{p}^{m}"


def matrix_text(desc: str, rows: list[list[int]]) -> str:
    lines = [f"{desc} {len(rows)} {len(rows[0])}"]
    lines += [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[str, list[list[int]]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expect(bool(lines), "empty matrix text")
    head = lines[0].split()
    expect(len(head) == 3, f"bad matrix header {lines[0]!r}")
    r, c = int(head[1]), int(head[2])
    rows = [[int(t) for t in ln.split()] for ln in lines[1:]]
    expect(len(rows) == r and all(len(row) == c for row in rows),
           f"matrix text does not have shape {r}x{c}")
    return head[0], rows


def random_rows(F: oracle.Field, k: int, n: int, rng: random.Random) -> list[list[int]]:
    """k x n matrix of full row rank with uniform entries."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        if F.rank(rows) == k:
            return rows


def random_lcd_rows(F, k, n, rng, want_lcd=True):
    while True:
        rows = random_rows(F, k, n, rng)
        if F.is_lcd(rows) == want_lcd:
            return rows


def permute_columns(rows, perm):
    return [[row[j] for j in perm] for row in rows]


class Memo:
    """Verdicts keyed by the exact output they were computed on.  A later
    pass that returns the same output gets the same verdict without
    recomputing it, which keeps the checks' own cost out of later passes."""

    def __init__(self):
        self._seen: dict[tuple, Any] = {}

    def get(self, key: tuple, compute: Callable[[], Any]) -> Any:
        if key not in self._seen:
            self._seen[key] = compute()
        return self._seen[key]


def check_code_rows(F, rows, *, d, lcd, memo, key):
    """LCD-ness by det(G G^T) and exact distance by enumeration."""
    got_lcd, got_d = memo.get(key, lambda: (F.is_lcd(rows), F.min_distance(rows)))
    if lcd is not None:
        expect(got_lcd == lcd, f"LCD is {got_lcd}, expected {lcd}")
    expect(got_d == d, f"oracle distance {got_d}, program says {d}")


def lcdkit_modules(pkg) -> SimpleNamespace:
    names = ("gf", "matfq", "codes", "orthogen", "construct", "cli", "fixtures")
    return SimpleNamespace(pkg=pkg, **{n: importlib.import_module(f"{pkg.__name__}.{n}")
                                       for n in names})


def check_modulus(ctx, q: int) -> None:
    F = field_for(q)
    expect(tuple(ctx.modulus) == F.modulus,
           f"GF({q}) modulus {tuple(ctx.modulus)} differs from {F.modulus}")


def warm_context(lk, desc: str):
    """Parse a descriptor, check its modulus and build its flat tables."""
    ctx = lk.gf.parse_field(desc)
    check_modulus(ctx, ctx.q)
    if ctx.q <= 1 << 10:
        ctx.tables()
    if ctx.base is not None and ctx.base.q <= 1 << 10:
        ctx.base.tables()
    return ctx


# ---------------------------------------------------------------------------
# search: the random-sampling route

# (field, n, k, target d, jobs per pass).  The first three are the
# published targets; the rest are MDS targets over larger fields.
# A search stops at its first hit, so its cost varies with its seed; the
# counts give the targets whose cost varies most the fewest jobs.
SEARCH_TARGETS = (
    ("7", 6, 2, 5, 200),
    ("4", 8, 4, 4, 15),
    ("11", 5, 3, 3, 300),
    ("11", 7, 3, 5, 6),
    ("17", 7, 3, 5, 15),
    ("16", 7, 2, 6, 150),
    ("16", 5, 2, 4, 300),
    ("25", 6, 3, 4, 25),
    ("13", 6, 3, 4, 25),
)


def search_generate(inp: Inputs) -> None:
    rng = random.Random(f"search:{inp.seed}")
    jobs = []
    for desc, n, k, d, count in SEARCH_TARGETS:
        for _ in range(count):
            jobs.append((desc, n, k, d, rng.randrange(1 << 30)))
    inp.data["jobs"] = jobs
    for desc, *_ in SEARCH_TARGETS:
        field_for(q_of(desc))


def search_setup(lk, inp: Inputs) -> Prepared:
    ctxs = {}
    for desc, n, *_ in SEARCH_TARGETS:
        ctxs[desc] = warm_context(lk, desc)
        lk.orthogen.generator_set(ctxs[desc], n)
    memo = Memo()
    jobs = []
    for desc, n, k, d, s in inp.data["jobs"]:
        ctx = ctxs[desc]

        def run(ctx=ctx, n=n, k=k, d=d, s=s):
            return lk.construct.search_random_lcd(ctx, n, k, d, BUDGET, s)

        def check(rec, desc=desc, n=n, k=k, d=d):
            expect(rec is not None, "search found nothing within the budget")
            expect(rec.field == descriptor(q_of(desc)), f"field {rec.field}")
            expect((rec.n, rec.k) == (n, k), f"shape [{rec.n},{rec.k}]")
            expect(rec.d_status == "exact" and rec.d >= d,
                   f"recorded d={rec.d} ({rec.d_status}) below target {d}")
            head, rows = parse_matrix(rec.matrix)
            expect(len(rows) == k and len(rows[0]) == n, "matrix shape")
            F = field_for(q_of(desc))
            key = ("search", rec.to_json())
            check_code_rows(F, rows, d=rec.d, lcd=True, memo=memo, key=key)
            replayed = memo.get(key + ("replay",),
                                lambda: lk.construct.replay_record(rec).to_text())
            expect(replayed == rec.matrix, "record does not replay byte for byte")

        jobs.append(Job(f"search[{n},{k},{d}]_F{desc}#{s}", run, check))
    return Prepared(jobs)


# ---------------------------------------------------------------------------
# certify: exact distance, hull and LCD-ness of generated codes

# The last entry of each spec is the job's repeat count, chosen so that
# every job takes at least about 50 ms per pass.
# generalized Reed-Solomon codes (field, n, k); d = n - k + 1.  The
# first three exceed the q^k enumeration budget and go by column subsets.
CERTIFY_GRS = (("16", 15, 7, 1), ("17", 14, 7, 1), ("13", 12, 8, 3),
               ("16", 15, 5, 1), ("32", 20, 4, 1), ("13", 12, 5, 1))
CERTIFY_PRODUCT_REPEAT = 10
# Hamming codes (field, redundancy r); d = 3.  [21,18]_F4 goes by subsets.
CERTIFY_HAMMING = (("2", 4, 8), ("3", 3, 1), ("4", 3, 10))
# random codes small enough for the oracle to enumerate
CERTIFY_RANDOM_ENUM = (("2", 18, 9, 15), ("3", 16, 8, 5), ("4", 16, 6, 10),
                       ("5", 12, 5, 15), ("7", 14, 5, 8), ("3^2", 12, 4, 15),
                       ("11", 10, 4, 15), ("5^2", 11, 3, 15))
# random high-rate codes [n, n - r] from a parity-check matrix: subsets side.
# They are drawn until d = 3, so the subsets scanned barely vary by seed.
CERTIFY_RANDOM_SUBSETS = (("8", 12, 3, 20), ("7", 14, 3, 15), ("16", 10, 3, 20))


def _grs_rows(F, n, k, rng):
    points = rng.sample(range(F.q), n)
    mults = [rng.randrange(1, F.q) for _ in range(n)]
    return [[F.mul(v, F.pow(a, i)) for a, v in zip(points, mults)]
            for i in range(k)]


def _from_parity_check(F, a_cols, r, rng):
    """Generator [I_k | -A^T] of the code with parity check [A | I_r], both
    under one random column permutation; returns (G rows, H rows)."""
    k = len(a_cols)
    n = k + r
    h = [[col[i] for col in a_cols] + [1 if j == i else 0 for j in range(r)]
         for i in range(r)]
    g = [[1 if j == i else 0 for j in range(k)] + [F.neg(a_cols[i][t]) for t in range(r)]
         for i in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
    return permute_columns(g, perm), permute_columns(h, perm)


def _hamming(F, r, rng):
    """Generator of the Hamming code: its parity check has one column per
    projective point of GF(q)^r (the unit vectors form the identity block);
    every column then gets a random nonzero scale, which keeps d = 3."""
    points = []
    for v in range(1, F.q ** r):
        digits = []
        for _ in range(r):
            v, c = divmod(v, F.q)
            digits.append(c)
        lead = next(c for c in digits if c)
        if lead == 1 and sum(1 for c in digits if c) > 1:
            points.append(digits)
    g, _h = _from_parity_check(F, points, r, rng)
    scales = [rng.randrange(1, F.q) for _ in g[0]]
    return [[F.mul(v, s) for v, s in zip(row, scales)] for row in g]


def _product_example(root: Path) -> dict:
    return json.loads((root / "src" / "lcdkit" / "data" /
                       "product_example_f11.json").read_text())


def _product_rows(F, comps, a_bar):
    """Rows of [C_1, ..., C_l] A-bar: block (i, j) is a_ij times G_i."""
    rows = []
    for i, comp in enumerate(comps):
        for g in comp:
            rows.append([F.mul(a, v) for a in a_bar[i] for v in g])
    return rows


def certify_generate(inp: Inputs) -> None:
    rng = random.Random(f"certify:{inp.seed}")
    codes = []

    def add(name, desc, rows, d, repeat):
        F = field_for(q_of(desc))
        codes.append({"name": name, "field": desc, "rows": rows, "d": d,
                      "hull": F.hull_dim(rows), "repeat": repeat})

    for desc, n, k, repeat in CERTIFY_GRS:
        add(f"grs[{n},{k}]_F{desc}", desc, _grs_rows(field_for(q_of(desc)), n, k, rng),
            n - k + 1, repeat)
    ex = _product_example(inp.root)
    F11 = field_for(11)
    a_bar = [[F11.mul(s, v) for v in row] for s, row in zip(ex["scalars"], ex["base"])]
    rows = _product_rows(F11, [[c] for c in ex["components"]], a_bar)
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    rows = permute_columns(rows, perm)
    expect(F11.min_distance(rows) == ex["expected"]["d"], "product example d")
    add("product[16,4]_F11", "11", rows, ex["expected"]["d"], CERTIFY_PRODUCT_REPEAT)
    for desc, r, repeat in CERTIFY_HAMMING:
        F = field_for(q_of(desc))
        rows = _hamming(F, r, rng)
        add(f"hamming[{len(rows[0])},{len(rows)}]_F{desc}", desc, rows, 3, repeat)
    for desc, n, k, repeat in CERTIFY_RANDOM_ENUM:
        F = field_for(q_of(desc))
        rows = random_rows(F, k, n, rng)
        add(f"random[{n},{k}]_F{desc}", desc, rows, F.min_distance(rows), repeat)
    for desc, n, r, repeat in CERTIFY_RANDOM_SUBSETS:
        F = field_for(q_of(desc))
        while True:
            a_cols = [[rng.randrange(F.q) for _ in range(r)] for _ in range(n - r)]
            g, h = _from_parity_check(F, a_cols, r, rng)
            if F.min_dependent_columns(h) == 3:
                break
        add(f"random[{n},{n - r}]_F{desc}", desc, g, 3, repeat)
    inp.data["codes"] = codes


def certify_setup(lk, inp: Inputs) -> Prepared:
    MatrixFq, LinearCode = lk.matfq.MatrixFq, lk.codes.LinearCode
    ctxs = {c["field"]: warm_context(lk, c["field"]) for c in inp.data["codes"]}
    memo = Memo()
    jobs = []
    for spec in inp.data["codes"]:
        ctx = ctxs[spec["field"]]
        F = field_for(ctx.q)

        def run(ctx=ctx, rows=spec["rows"]):
            code = LinearCode.from_generator(MatrixFq.from_rows(ctx, rows))
            return code.k, code.distance(), code.hull_dim(), code.is_lcd(), code.G.rows()

        def check(out, spec=spec, F=F):
            k, dist, hull, lcd, canon = out
            expect(k == len(spec["rows"]), f"dimension {k}")
            expect(dist.status == "exact", f"distance status {dist.status}")
            expect(dist.value == spec["d"], f"d={dist.value}, expected {spec['d']}")
            expect(hull == spec["hull"], f"hull {hull}, oracle {spec['hull']}")
            expect(lcd == (spec["hull"] == 0), f"is_lcd {lcd}, hull {spec['hull']}")
            expect(memo.get((spec["name"], tuple(map(tuple, canon))),
                            lambda: F.same_span([list(r) for r in canon], spec["rows"])),
                   "canonical generator spans another code")

        jobs.append(Job(spec["name"], run, check, spec["repeat"]))
    return Prepared(jobs)


# ---------------------------------------------------------------------------
# closure: BFS over the generated orthogonal group

# (n, field, repeat): O(4,3) and O(4,5) close in a few milliseconds,
# O(4,7) and O(4,8) in seconds
CLOSURE_ROWS = ((4, "3", 20), (4, "4", 3), (4, "5", 20), (4, "7", 1), (4, "8", 1),
                (5, "3", 1))


def _published_orders(root: Path) -> dict[tuple[int, int], tuple[int, int]]:
    raw = json.loads((root / "src" / "lcdkit" / "data" /
                      "orthogonal_group_orders.json").read_text())
    return {(n, q): (t, o) for n, q, t, o in raw["rows"]}


def closure_generate(inp: Inputs) -> None:
    rng = random.Random(f"closure:{inp.seed}")
    order = list(CLOSURE_ROWS)
    rng.shuffle(order)
    table = _published_orders(inp.root)
    for (n, q), (t, o) in table.items():
        if q % 2:
            expect(o == oracle.orthogonal_group_order(n, q),
                   f"table |O_{n}({q})| = {o} disagrees with the formula")
            expect(o % t == 0, f"T_{n}({q}) = {t} does not divide |O|")
    inp.data["rows"] = order
    inp.data["table"] = table


def closure_setup(lk, inp: Inputs) -> Prepared:
    table = inp.data["table"]
    loaded = lk.fixtures.group_orders()
    expect(loaded == table, "lcdkit's order table differs from the bundled file")
    jobs = []
    for n, desc, repeat in inp.data["rows"]:
        ctx = warm_context(lk, desc)
        gens = lk.orthogen.generator_set(ctx, n)
        t, o = table[(n, ctx.q)]

        def run(gens=gens):
            return lk.orthogen.group_closure_order(gens)

        def check(out, t=t, o=o, n=n, q=ctx.q):
            order, complete = out
            expect(complete, f"closure of n={n} q={q} hit the cap")
            expect(order == t, f"closure order {order}, published T={t}")
            if t == o and q % 2:
                expect(order == oracle.orthogonal_group_order(n, q),
                       f"closure order {order} is not |O_{n}({q})|")

        jobs.append(Job(f"closure n={n} q={ctx.q}", run, check, repeat))
    return Prepared(jobs)


# ---------------------------------------------------------------------------
# build: the other constructions through the CLI, a store, and replay

BUILD_SAMPLES = (("13", 6), ("5^2", 5), ("8", 6))
# (field, n, k, seeded lambdas?) for extend --grow; -1 must be a square
BUILD_EXTENDS = (("13", 6, 3, False), ("3^2", 6, 3, False),
                 ("5^2", 5, 2, False), ("17", 6, 2, True))
# (tower, n, k, source LCD?) for project; None takes whatever comes
BUILD_PROJECTS = (("4/2", 5, 2, True), ("4/2", 6, 2, False),
                  ("8/2", 4, 2, None), ("27/3", 5, 2, None))
# (field, n, k, derived dimensions k').  Replaying an rs_lemma3 record
# rebuilds the cyclic code and its distance, so GF(27) keeps two of six.
BUILD_RS = (("3^2", 8, 3, (1, 2, 3)), ("5^2", 24, 4, (1, 2, 3, 4)),
            ("3^3", 13, 6, (1, 6)))
BUILD_VERIFY = (("5", 8, 4), ("3^2", 6, 3), ("2", 12, 6))
F7_PRODUCT_KS = (2, 1, 1)


def _growth_row_exists(F, rows_ext) -> bool:
    """Some (0, ..., 0, s, t) keeps the extended code LCD."""
    n = len(rows_ext[0])
    for s in range(F.q):
        for t in range(F.q):
            if (s, t) != (0, 0) and F.is_lcd(rows_ext + [[0] * (n - 2) + [s, t]]):
                return True
    return False


def _extend_rows(F, rows, lambdas, a, b):
    out = []
    for i, (row, lam) in enumerate(zip(rows, lambdas)):
        suffix = ([F.mul(lam, a), F.mul(lam, b)] if i % 2 == 0
                  else [F.mul(lam, F.neg(b)), F.mul(lam, a)])
        out.append(row + suffix)
    return out


def _extend_input(F, n, k, lambdas, rng):
    """A random LCD [n, k] code that stays growable under every isotropic
    pair, so ``extend --grow`` succeeds whichever pair lcdkit picks."""
    pairs = [(a, b) for a in range(1, F.q) for b in range(1, F.q)
             if F.add(F.mul(a, a), F.mul(b, b)) == 0]
    expect(bool(pairs), f"GF({F.q}) has no isotropic pair")
    while True:
        rows = random_lcd_rows(F, k, n, rng)
        canon = F.rref(rows)
        if all(_growth_row_exists(F, _extend_rows(F, canon, lambdas, a, b))
               for a, b in pairs):
            return rows


def _orthogonal_3x3(F, rng):
    """Signed permutation times a plane rotation [[a, -b], [b, a]]."""
    circle = [(a, b) for a in range(1, F.q) for b in range(1, F.q)
              if F.add(F.mul(a, a), F.mul(b, b)) == 1]
    a, b = rng.choice(circle)
    rot = [[a, F.neg(b), 0], [b, a, 0], [0, 0, 1]]
    perm = list(range(3))
    rng.shuffle(perm)
    signed = [[(rng.choice((1, F.neg(1))) if perm[i] == j else 0) for j in range(3)]
              for i in range(3)]
    m = F.matmul(signed, rot)
    expect(F.matmul(m, [list(c) for c in zip(*m)]) ==
           [[int(i == j) for j in range(3)] for i in range(3)], "not orthogonal")
    return m


def build_generate(inp: Inputs) -> None:
    rng = random.Random(f"build:{inp.seed}")
    d = inp.scratch
    data = inp.data

    def write(name, desc, rows):
        path = d / name
        path.write_text(matrix_text(desc, rows))
        return str(path)

    data["samples"] = [(desc, n, rng.randrange(1 << 30)) for desc, n in BUILD_SAMPLES]
    data["extends"] = []
    for i, (desc, n, k, seeded) in enumerate(BUILD_EXTENDS):
        F = field_for(q_of(desc))
        lambdas = [rng.randrange(F.q) for _ in range(k)] if seeded else [1] * k
        rows = _extend_input(F, n, k, lambdas, rng)
        data["extends"].append((desc, n, k, lambdas if seeded else None,
                                write(f"extend{i}.txt", desc, rows), rows))
    ex = _product_example(inp.root)
    data["product_f11"] = {
        "base": write("f11_base.txt", "11", ex["base"]),
        "components": [write(f"f11_c{i}.txt", "11", [c])
                       for i, c in enumerate(ex["components"])],
        "scalars": ex["scalars"], "example": ex,
    }
    F7 = field_for(7)
    base = _orthogonal_3x3(F7, rng)
    comps = [random_lcd_rows(F7, k, 4, rng) for k in F7_PRODUCT_KS]
    scalars = [rng.randrange(1, 7) for _ in comps]
    data["product_f7"] = {
        "base": write("f7_base.txt", "7", base),
        "components": [write(f"f7_c{i}.txt", "7", c) for i, c in enumerate(comps)],
        "scalars": scalars, "rows": _product_rows(
            F7, comps, [[F7.mul(s, v) for v in row] for s, row in zip(scalars, base)]),
    }
    data["projects"] = []
    for i, (tower, n, k, want) in enumerate(BUILD_PROJECTS):
        F = field_for(q_of(tower))
        rows = (random_rows(F, k, n, rng) if want is None
                else random_lcd_rows(F, k, n, rng, want))
        data["projects"].append((tower, n, k, write(f"project{i}.txt", tower, rows), rows))
    data["verify"] = []
    for i, (desc, n, k) in enumerate(BUILD_VERIFY):
        F = field_for(q_of(desc))
        rows = random_rows(F, k, n, rng)
        data["verify"].append((write(f"verify{i}.txt", desc, rows), n, k,
                               F.hull_dim(rows), F.min_distance(rows)))
    data["store"] = d / "store.jsonl"


def _store_records(path: Path) -> dict[tuple[str, int, int], dict]:
    out = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out[(rec["field"], rec["n"], rec["k"])] = rec
    return out


def _cli_run(lk, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                status = lk.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                status = exc.code
        return status, buf.getvalue()
    return run


def build_setup(lk, inp: Inputs) -> Prepared:
    data = inp.data
    store = data["store"]
    memo = Memo()
    descs = {d for d, _ in BUILD_SAMPLES} | {e[0] for e in BUILD_EXTENDS}
    descs |= {"11", "7", "2", "3"} | {p[0] for p in BUILD_PROJECTS}
    descs |= {r[0] for r in BUILD_RS} | {v[0] for v in BUILD_VERIFY}
    for desc in sorted(descs):
        warm_context(lk, desc)
    ex = lk.fixtures.product_example()
    expect([list(r) for r in ex["base"].rows()] == data["product_f11"]["example"]["base"],
           "lcdkit's product fixture differs from the bundled file")
    jobs = []
    st = ["--store", str(store)]

    written: set[tuple[str, int, int]] = set()  # keys checked this pass

    def record(key, tag):
        rec = _store_records(store).get(key)
        expect(rec is not None, f"store has no record {key}")
        expect(rec["tag"] == tag and rec["d_status"] == "exact",
               f"record {key} is {rec['tag']}/{rec['d_status']}")
        written.add(key)
        return rec

    def ok(status):
        expect(status == 0, f"exit status {status}")

    def code_check(rec, F, *, lcd=None):
        _h, rows = parse_matrix(rec["matrix"])
        check_code_rows(F, rows, d=rec["d"], lcd=lcd, memo=memo, key=("code", rec["matrix"]))
        return rows

    for desc, n, s in data["samples"]:
        def check(out, desc=desc, n=n):
            status, text = out
            ok(status)
            F = field_for(q_of(desc))
            head, rows = parse_matrix(text)
            expect(q_of(head) == F.q and len(rows) == n == len(rows[0]), "sample shape")
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            expect(memo.get(("orth", text), lambda: F.gram(rows) == ident),
                   "sampled matrix is not orthogonal")

        jobs.append(Job(f"sample F{desc} n={n}",
                        _cli_run(lk, ["sample", "--field", desc, "--n", str(n),
                                      "--seed", str(s)]), check))

    for desc, n, k, lambdas, path, rows in data["extends"]:
        argv = ["extend", path, "--grow"] + st
        if lambdas is not None:
            argv += ["--lambdas", ",".join(map(str, lambdas))]

        def check(out, desc=desc, n=n, k=k, rows=rows):
            ok(out[0])
            F = field_for(q_of(desc))
            rec = record((descriptor(F.q), n + 2, k + 1), "extended")
            prov = rec["provenance"]
            _h, base = parse_matrix(prov["base"])
            expect(F.same_span(base, rows), "extension base is another code")
            a, b = prov["pair"]
            expect(a and b and F.add(F.mul(a, a), F.mul(b, b)) == 0, "pair not isotropic")
            ext = code_check(rec, F, lcd=True)
            expect([r[:n] for r in ext[:k]] == base, "extension changed the base rows")
            expect(F.gram(ext[:k]) == F.gram(base), "extension changed the Gram matrix")
            expect(ext[k] == [0] * n + list(prov["added_row"]), "growth row")

        jobs.append(Job(f"extend F{desc} [{n},{k}]", _cli_run(lk, argv), check))

    f11 = data["product_f11"]
    argv = ["product", "--base", f11["base"], "--scalars",
            ",".join(map(str, f11["scalars"])), "--components", ",".join(f11["components"])] + st
    exp = f11["example"]["expected"]

    def check_f11(out):
        ok(out[0])
        F = field_for(11)
        rec = record(("11", exp["n"], exp["k"]), "matrix_product")
        expect(rec["d"] == exp["d"], f"product d={rec['d']}, published {exp['d']}")
        rows = code_check(rec, F, lcd=exp["lcd"])
        ex = f11["example"]
        a_bar = [[F.mul(s, v) for v in row] for s, row in zip(ex["scalars"], ex["base"])]
        expect(parse_matrix(rec["provenance"]["a_bar"])[1] == a_bar, "a_bar")
        expect(F.same_span(rows, _product_rows(F, [[c] for c in ex["components"]], a_bar)),
               "product spans another code")

    jobs.append(Job("product [16,4]_F11", _cli_run(lk, argv), check_f11))

    f7 = data["product_f7"]
    argv = ["product", "--base", f7["base"], "--scalars", ",".join(map(str, f7["scalars"])),
            "--components", ",".join(f7["components"])] + st

    def check_f7(out):
        ok(out[0])
        F = field_for(7)
        rec = record(("7", 12, sum(F7_PRODUCT_KS)), "matrix_product")
        rows = code_check(rec, F, lcd=True)
        expect(F.same_span(rows, f7["rows"]), "product spans another code")

    jobs.append(Job("product [12,4]_F7", _cli_run(lk, argv), check_f7))

    for tower, n, k, path, rows in data["projects"]:
        def check(out, tower=tower, n=n, k=k, rows=rows):
            ok(out[0])
            T = field_for(q_of(tower))
            B = field_for(T.p)
            ell = T.m
            rec = record((descriptor(T.p), n * ell, k * ell), "projection")
            basis = rec["provenance"]["basis"]
            expect(len(basis) == ell and all(
                T.trace(T.mul(x, y)) == int(i == j)
                for i, x in enumerate(basis) for j, y in enumerate(basis)),
                "basis is not trace-orthonormal")
            expect(T.same_span(parse_matrix(rec["provenance"]["source"])[1], rows),
                   "projection source is another code")
            expanded = [[T.trace(T.mul(ei, T.mul(e, x))) for x in row for ei in basis]
                        for row in rows for e in basis]
            got = code_check(rec, B, lcd=T.is_lcd(rows))
            expect(B.same_span(got, expanded), "projection spans another code")

        jobs.append(Job(f"project F{tower} [{n},{k}]",
                        _cli_run(lk, ["project", path] + st), check))

    for desc, n, k, k_primes in BUILD_RS:
        def check(out, desc=desc, n=n, k=k, k_primes=k_primes):
            status, text = out
            ok(status)
            F = field_for(q_of(desc))
            expect(len(text.splitlines()) == len(k_primes), "one line per k'")
            for kp in k_primes:
                rec = record((descriptor(F.q), n - k, kp), "rs_lemma3")
                expect(rec["d"] == n - k + 1 - kp, f"[{n - k},{kp}] d={rec['d']}")
                prov = rec["provenance"]
                expect((prov["n"], prov["k"], prov["k_prime"]) == (n, k, kp), "provenance")
                expect(sorted(prov["column_permutation"]) == list(range(n)), "permutation")
                _h, rows = parse_matrix(rec["matrix"])
                if F.q ** kp <= 20_000:
                    code_check(rec, F, lcd=True)
                else:
                    expect(memo.get(("lcd", rec["matrix"]), lambda: F.is_lcd(rows)),
                           "rs record is not LCD")

        jobs.append(Job(f"rs-pipeline F{desc} n={n} k={k}",
                        _cli_run(lk, ["rs-pipeline", "--field", desc, "--n", str(n),
                                      "--k", str(k), "--k-primes",
                                      ",".join(map(str, k_primes))] + st), check))

    for path, n, k, hull, d in data["verify"]:
        def check(out, n=n, k=k, hull=hull, d=d):
            status, text = out
            ok(status)
            got = dict(tok.split("=", 1) for tok in text.split())
            cls = "MDS" if d == n - k + 1 else "almost_MDS" if d == n - k else "other"
            want = {"n": str(n), "k": str(k), "hull": str(hull),
                    "LCD": "true" if hull == 0 else "false", "d": str(d),
                    "d_status": "exact", "class": cls}
            expect(got == want, f"verify printed {got}, expected {want}")

        jobs.append(Job(f"verify {Path(path).name}", _cli_run(lk, ["verify", path]), check))

    first_bytes: list[bytes] = []

    def replay():
        loaded = lk.codes.RecordStore(store)
        return [(key, rec.matrix, lk.construct.replay_record(rec).to_text())
                for key, rec in loaded.records.items()]

    def check_replay(triples):
        expect({t[0] for t in triples} == written and len(triples) == len(written),
               "store keys differ from the records the verbs reported")
        for key, stored, replayed in triples:
            expect(stored == replayed, f"record {key} does not replay byte for byte")
        blob = store.read_bytes()
        if not first_bytes:
            first_bytes.append(blob)
        expect(blob == first_bytes[0], "store bytes differ between same-seed passes")

    jobs.append(Job("store replay", replay, check_replay))

    def begin_pass():
        store.unlink(missing_ok=True)
        written.clear()

    return Prepared(jobs, begin_pass)


WORKLOADS = {
    "search": (search_generate, search_setup),
    "certify": (certify_generate, certify_setup),
    "closure": (closure_generate, closure_setup),
    "build": (build_generate, build_setup),
}
