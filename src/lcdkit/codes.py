"""Linear codes over a field context: duals, hulls, LCD tests, minimum
distance, shortening/puncturing, and a JSONL record store.

A code is held as a full-rank generator matrix.  ``from_generator``
row-reduces arbitrary input to a canonical basis; construction routines
that care about the *shape* of a generator (orthogonal rows, block
structure) use ``from_basis`` to keep their matrix as built.  Code
identity is always compared through the canonical reduced form, so the
two paths agree on what the code is.

The LCD test follows the determinant criterion: C intersects its dual
trivially exactly when det(G G^T) is nonzero, and more generally
dim(C meet C^perp) = k - rank(G G^T).  ``brute_hull`` re-derives the hull
by enumerating codewords, which is the oracle the fast path is tested
against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

from . import gf
from .errors import (
    BudgetExceeded,
    DistanceNotExact,
    EmptyResult,
    InvalidValue,
    ParseError,
    ZeroMatrix,
)
from .matfq import MatrixFq

EXACT = "exact"
LOWER_BOUND = "lower_bound"

DEFAULT_DISTANCE_BUDGET = 1 << 26
DEFAULT_HULL_BUDGET = 1 << 16


class DistanceResult(NamedTuple):
    value: int
    status: str
    upper: Optional[int] = None


class LinearCode:
    """[n, k] linear code held as a full-rank generator matrix."""

    __slots__ = ("ctx", "n", "k", "G", "_canon", "_dist")

    def __init__(self, G: MatrixFq):
        # internal; use from_generator / from_basis
        self.ctx = G.ctx
        self.n = G.c
        self.k = G.r
        self.G = G
        self._canon = None
        self._dist = None

    @classmethod
    def from_generator(cls, G: MatrixFq) -> "LinearCode":
        """Row-reduce arbitrary input to a canonical full-rank basis."""
        if G.is_zero():
            raise ZeroMatrix("generator matrix is all zeros")
        red, pivots = G.rref()
        basis = red.take_rows(range(len(pivots)))
        code = cls(basis)
        code._canon = basis
        return code

    @classmethod
    def from_basis(cls, G: MatrixFq, verify_rank: bool = True) -> "LinearCode":
        """Wrap a known-independent set of rows without reshaping it."""
        if verify_rank and G.rank() != G.r:
            raise ZeroMatrix("rows are linearly dependent")
        return cls(G)

    @classmethod
    def zero(cls, ctx: gf.FieldCtx, n: int) -> "LinearCode":
        return cls(MatrixFq(ctx, 0, n, ()))

    @classmethod
    def full(cls, ctx: gf.FieldCtx, n: int) -> "LinearCode":
        return cls(MatrixFq.identity(ctx, n))

    # -- structure ----------------------------------------------------------

    def canonical(self) -> MatrixFq:
        if self._canon is None:
            red, pivots = self.G.rref()
            self._canon = red.take_rows(range(len(pivots)))
        return self._canon

    def dual(self) -> "LinearCode":
        if self.k == 0:
            return LinearCode.full(self.ctx, self.n)
        H = self.canonical().nullspace()
        if H.r == 0:
            return LinearCode.zero(self.ctx, self.n)
        return LinearCode.from_basis(H, verify_rank=False)

    def gram(self) -> MatrixFq:
        return self.G.gram()

    def hull_dim(self) -> int:
        """dim(C meet C^perp) = k - rank(G G^T)."""
        if self.k == 0:
            return 0
        return self.k - self.gram().rank()

    def is_lcd(self) -> bool:
        if self.k == 0:
            return True
        return self.gram().det() != 0

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        ctx = self.ctx
        out = [0] * self.n
        for m, row in zip(message, self.G.rows()):
            if m:
                out = [ctx.add(o, ctx.mul(m, v)) for o, v in zip(out, row)]
        return tuple(out)

    def codewords(self, budget: int = DEFAULT_HULL_BUDGET) -> Iterator[tuple[int, ...]]:
        """All q^k codewords, zero included."""
        if self.ctx.q ** self.k > budget:
            raise BudgetExceeded(f"q^k exceeds {budget}")
        yield from _span_iter(self.G.rows(), self.ctx, self.n)

    def brute_hull(self, budget: int = DEFAULT_HULL_BUDGET) -> MatrixFq:
        """Hull basis by exhaustive enumeration; the oracle for hull_dim."""
        ctx = self.ctx
        grows = self.G.rows()
        members = []
        for w in self.codewords(budget):
            if any(w) and all(_dot(ctx, w, g) == 0 for g in grows):
                members.append(w)
        if not members:
            return MatrixFq(ctx, 0, self.n, ())
        red, pivots = MatrixFq.from_rows(ctx, members).rref()
        return red.take_rows(range(len(pivots)))

    # -- minimum distance --------------------------------------------------

    def distance(self, budget: int = DEFAULT_DISTANCE_BUDGET,
                 at_least: int = 0) -> DistanceResult:
        """Exact d by message enumeration when q^k <= budget, else by
        parity-check column subsets; a budget blow-up there degrades to a
        certified lower bound plus a generator-row upper bound.

        ``at_least = t`` asks only whether d >= t: enumeration stops at the
        first codeword of weight w < t and returns (1, lower_bound, w),
        which is not cached.  When d >= t the enumeration runs to the end
        and the result is the exact d.  Only enumeration reads t: the
        subset scan's iterative deepening already stops at d."""
        if self.k == 0:
            raise EmptyResult("zero code has no minimum distance")
        if self._dist is not None and self._dist.status == EXACT:
            return self._dist
        if self.k == self.n:
            result = DistanceResult(1, EXACT)
        elif self.ctx.q ** self.k <= budget:
            w = _distance_by_enumeration(self.G.rows(), self.ctx, self.n,
                                         at_least)
            if w < at_least:
                return DistanceResult(1, LOWER_BOUND, w)
            result = DistanceResult(w, EXACT)
        else:
            H = self.dual().G
            value, exact = _distance_by_column_subsets(H, self.n, budget)
            if exact:
                result = DistanceResult(value, EXACT)
            else:
                upper = min(sum(1 for v in row if v) for row in self.G.rows())
                result = DistanceResult(value, LOWER_BOUND, upper)
        self._dist = result
        return result

    def classify(self) -> str:
        """Singleton classification; needs an exactly known distance."""
        if self._dist is None or self._dist.status != EXACT:
            raise DistanceNotExact("compute an exact distance first")
        return singleton_class(self.n, self.k, self._dist.value)

    # -- coordinate surgery ---------------------------------------------------

    def shorten(self, positions: Sequence[int]) -> "LinearCode":
        """Subcode vanishing on the given coordinates, those columns deleted."""
        pos = sorted(set(positions))
        if any(not 0 <= p < self.n for p in pos):
            raise InvalidValue("position out of range")
        if not pos:
            return self
        A = self.G.take_cols(pos)
        M = A.transpose().nullspace()  # messages whose codeword dies on pos
        if M.r == 0:
            raise EmptyResult("shortening empties the code")
        newG = (M @ self.G).drop_cols(pos)
        return LinearCode.from_generator(newG)

    def puncture(self, positions: Sequence[int]) -> "LinearCode":
        """Delete the given coordinates."""
        pos = sorted(set(positions))
        if any(not 0 <= p < self.n for p in pos):
            raise InvalidValue("position out of range")
        if not pos:
            return self
        newG = self.G.drop_cols(pos)
        if newG.c == 0 or newG.is_zero():
            raise EmptyResult("puncturing empties the code")
        return LinearCode.from_generator(newG)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode) and self.ctx == other.ctx
                and self.n == other.n and self.k == other.k
                and self.canonical() == other.canonical())

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.canonical().entries))

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.ctx.descriptor}))"


# ---------------------------------------------------------------------------
# distance internals (each usable on its own, so they cross-check each other)

def _dot(ctx: gf.FieldCtx, u: Sequence[int], v: Sequence[int]) -> int:
    s = 0
    for a, b in zip(u, v):
        if a and b:
            s = ctx.add(s, ctx.mul(a, b))
    return s


def _span_iter(rows: Sequence[Sequence[int]], ctx: gf.FieldCtx,
               n: int) -> Iterator[tuple[int, ...]]:
    """All vectors in the row span, zero first, via DFS over coefficients."""
    q = ctx.q
    add = ctx.add
    scaled = [[tuple(ctx.mul(c, v) for v in row) for c in range(q)]
              for row in rows]

    def rec(i: int, vec: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == len(rows):
            yield vec
            return
        for c in range(q):
            if c == 0:
                yield from rec(i + 1, vec)
            else:
                srow = scaled[i][c]
                yield from rec(i + 1,
                               tuple(add(a, b) for a, b in zip(vec, srow)))

    yield from rec(0, (0,) * n)


class _Below(Exception):
    """Raised inside the enumeration at a codeword lighter than at_least."""


@lru_cache(maxsize=None)
def _words(ctx: gf.FieldCtx, n: int) -> tuple:
    """(width, shift, spread, carry, top, low, high): one int per length-n
    vector over ctx, built once per (ctx, n).  Coordinate i sits at bit
    i * width and holds the base-p digits of its element's code, which add
    digit by digit in every field and tower; spread[a] is code a so laid
    out.  For p = 2 the m digits sit under one guard bit and words add by
    XOR.  For odd p each digit has b bits, the top one (top) a guard: a
    plain add keeps fields below 2p - 1 < 2^b, and + carry = 2^(b-1) - p
    sets the guards of the fields that reached p and must lose it.  A
    word's top coordinate bit is clear, so (x + low) & high sets it in
    exactly the nonzero coordinates."""
    p, m = ctx.p, ctx.m
    b = 1 if p == 2 else (p - 1).bit_length() + 1
    width = m + 1 if p == 2 else m * b
    spread = range(ctx.q) if p == 2 or m == 1 else [
        sum((a // p ** j % p) << (b * j) for j in range(m))
        for a in range(ctx.q)]
    digits = sum(1 << (b * i) for i in range(m * n))
    coords = sum(1 << (width * i) for i in range(n))
    guard, top_bit = 1 << (b - 1), 1 << (width - 1)
    return (width, b - 1, spread, (guard - p) * digits, guard * digits,
            (top_bit - 1) * coords, top_bit * coords)


def _distance_by_enumeration(rows: Sequence[Sequence[int]], ctx: gf.FieldCtx,
                             n: int, at_least: int = 0) -> int:
    """Minimum weight over one representative per scalar class: messages are
    scanned with their first nonzero coefficient pinned to 1, and at each
    leaf the last row's q - 1 multiples are tried in one loop.  Stops at
    the first codeword of weight w < at_least and returns w; any other
    return is the exact minimum.

    Codewords are packed into ints (``_words``).  A leaf's codeword
    vec + c * last is zero exactly where vec equals -c * last, so the leaf
    holds the last row's multiples negated, and each message costs one XOR
    and one popcount."""
    p, k = ctx.p, len(rows)
    width, shift, spread, carry, top, low, high = _words(ctx, n)

    if p == 2:
        def sums(xs: list[int], ys: list[int]) -> list[int]:
            return [x ^ y for y in ys for x in xs]
    else:
        def sums(xs: list[int], ys: list[int]) -> list[int]:
            return [(t := x + y) - (((t + carry) & top) >> shift) * p
                    for y in ys for x in xs]

    def pack(vec: Sequence[int]) -> int:
        out = 0
        for x in reversed(vec):
            out = (out << width) | spread[x]
        return out

    # multiples[i - 1][c - 1] = c * s * rows[i] for c = 1 .. q - 1, with
    # s = -1 on the last row and 1 on the others (the lead row's
    # coefficient is pinned to 1).  Code c = d p^j + r (r < p^j) is the
    # element d * beta_j + r, beta_j being code p^j, so for each digit j
    # the d * s * beta_j * rows[i] (0 < d < p) come by doubling from one
    # packed row and are added to the p^j multiples built so far.
    multiples = []
    for i in range(1, k):
        sign = p - 1 if i == k - 1 else 1
        mults = [0]
        for j in range(ctx.m):
            beta = sign * p ** j
            ds = [pack(rows[i] if beta == 1
                       else [ctx.mul(beta, x) for x in rows[i]])]
            while len(ds) < p - 1:
                ds += sums([ds[-1]], ds)
            ds = ds[:p - 1]
            mults += sums(mults, ds) if j else ds
        multiples.append(mults[1:])
    best = n + 1

    def rec(i: int, vec: int):
        nonlocal best
        if i < k - 1:
            rec(i + 1, vec)
            for u in sums([vec], multiples[i - 1]):
                rec(i + 1, u)
            return
        w = ((vec + low) & high).bit_count()
        if i < k:
            for u in multiples[i - 1]:
                x = (((vec ^ u) + low) & high).bit_count()
                if x < w:
                    w = x
                    if x < at_least:
                        break
        if w < best:
            best = w
            if best < at_least:
                raise _Below

    try:
        for lead in range(k):
            rec(lead + 1, pack(rows[lead]))
    except _Below:
        pass
    return best


def _distance_by_column_subsets(H: MatrixFq, n: int,
                                budget: int) -> tuple[int, bool]:
    """Smallest number of linearly dependent parity-check columns.

    Iterative deepening over the subset size w; within a size, a depth-first
    walk visits the subsets in ``itertools.combinations`` order.  A node holds
    the columns after its prefix reduced modulo the prefix's span, pivot
    coordinates dropped, so its children reuse its elimination: choosing a
    column costs one scaled-row subtraction per later column, and a leaf is
    dependent exactly when its reduced column is zero.  Each size-w subset is
    charged rows(H) * w^2 against the budget before it is tested.  Returns
    (d, True) when certified; (w, False) means only d >= w was certified
    before the budget ran out.
    """
    rows_h = H.r
    if rows_h == 0:
        return 1, True
    ctx = H.ctx
    adds, muls = ctx.tables()

    def scan(rest, need: int):
        """True at the first dependent leaf, False when the budget runs
        out first, None when neither happens below this node."""
        nonlocal ops
        if need == 1:
            # each leaf is charged before its test: the first `allowed` fit
            allowed = (budget - ops) // cost
            if zero in rest and rest.index(zero) < allowed:
                return True
            if len(rest) > allowed:
                return False
            ops += len(rest) * cost
            return None
        for i in range(len(rest) - need + 1):
            # rest[i] is nonzero: smaller sets than size w are independent
            v = rest[i]
            p = next(j for j, x in enumerate(v) if x)
            m = muls[ctx.neg(ctx.inv(v[p]))]
            vt = [m[x] for x in v[p + 1:]]                   # -v / v[p]
            later = []
            for b in rest[i + 1:]:
                tail = b[p + 1:]
                if b[p]:
                    mb = muls[b[p]]
                    tail = tuple([adds[x][mb[y]] for x, y in zip(tail, vt)])
                later.append(b[:p] + tail)
            found = scan(later, need - 1)
            if found is not None:
                return found
        return None

    cols = [H.col(j) for j in range(n)]
    ops = 0
    for w in range(1, min(n, rows_h) + 1):
        cost = rows_h * w * w
        zero = (0,) * (rows_h - w + 1)
        found = scan(cols, w)
        if found is not None:
            return w, found
    # any rows(H) + 1 columns are dependent
    return min(n, rows_h) + 1, True


def singleton_class(n: int, k: int, d: int) -> str:
    """Singleton classification of an [n, k, d] code."""
    if d == n - k + 1:
        return "MDS"
    if d == n - k:
        return "almost_MDS"
    return "other"


# ---------------------------------------------------------------------------
# persistent records

def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class CodeRecord:
    """One discovered code: parameters, provenance, and its generator text.

    The timestamp defaults to 0 so same-seed runs write byte-identical
    files; callers that want wall-clock stamps opt in explicitly.
    """

    field: str
    n: int
    k: int
    d: Optional[int]
    d_status: str
    tag: str
    provenance: dict = field(default_factory=dict)
    matrix: str = ""
    timestamp: int = 0

    def key(self) -> tuple[str, int, int]:
        return (self.field, self.n, self.k)

    def generator(self) -> MatrixFq:
        return MatrixFq.from_text(self.matrix)

    def code(self) -> LinearCode:
        return LinearCode.from_basis(self.generator())

    def supersedes(self, other: "CodeRecord") -> bool:
        """Dedupe order: exact beats bounded, then larger d; ties keep the
        earlier record."""
        mine = (self.d_status == EXACT, self.d if self.d is not None else -1)
        theirs = (other.d_status == EXACT,
                  other.d if other.d is not None else -1)
        return mine > theirs

    def to_json(self) -> str:
        payload = {
            "field": self.field, "n": self.n, "k": self.k, "d": self.d,
            "d_status": self.d_status, "tag": self.tag,
            "provenance": self.provenance, "matrix": self.matrix,
            "timestamp": self.timestamp,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "CodeRecord":
        try:
            raw = json.loads(line)
        # besides JSONDecodeError (a ValueError), json.loads raises
        # ValueError for an integer too long to convert and RecursionError
        # for arrays nested too deep
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad record line: {exc}") from None
        if not isinstance(raw, dict):
            raise ParseError("record line is not a JSON object")
        missing = {"field", "n", "k", "d", "d_status", "tag",
                   "provenance", "matrix"} - set(raw)
        if missing:
            raise ParseError(f"record missing fields {sorted(missing)}")
        raw.setdefault("timestamp", 0)
        wrong = [name for name, ok in (
            ("field", isinstance(raw["field"], str)),
            ("n", _is_int(raw["n"])),
            ("k", _is_int(raw["k"])),
            ("d", raw["d"] is None or _is_int(raw["d"])),
            ("d_status", isinstance(raw["d_status"], str)),
            ("tag", isinstance(raw["tag"], str)),
            ("provenance", isinstance(raw["provenance"], dict)),
            ("matrix", isinstance(raw["matrix"], str)),
            ("timestamp", _is_int(raw["timestamp"]))) if not ok]
        if wrong:
            raise ParseError(f"record fields of the wrong type {wrong}")
        return cls(field=raw["field"], n=raw["n"], k=raw["k"], d=raw["d"],
                   d_status=raw["d_status"], tag=raw["tag"],
                   provenance=raw["provenance"], matrix=raw["matrix"],
                   timestamp=raw["timestamp"])

    @classmethod
    def from_code(cls, code: LinearCode, tag: str, provenance: dict,
                  timestamp: int = 0) -> "CodeRecord":
        dist = code.distance()
        return cls(field=code.ctx.descriptor, n=code.n, k=code.k,
                   d=dist.value, d_status=dist.status, tag=tag,
                   provenance=provenance, matrix=code.G.to_text(),
                   timestamp=timestamp)


class RecordStore:
    """JSONL store keyed on (field, n, k), keeping the best record per key.

    ``save`` rewrites the whole file with keys sorted, so equal runs
    produce equal bytes.  It writes a sibling temp file and moves it over
    the store, so a write that fails part-way leaves the old file whole.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.records: dict[tuple[str, int, int], CodeRecord] = {}
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                if line.strip():
                    self.add(CodeRecord.from_json(line))

    def add(self, record: CodeRecord) -> bool:
        """Insert under the dedupe policy; True when the store changed."""
        key = record.key()
        held = self.records.get(key)
        if held is None or record.supersedes(held):
            self.records[key] = record
            return True
        return False

    def get(self, field: str, n: int, k: int) -> Optional[CodeRecord]:
        return self.records.get((field, n, k))

    def __len__(self) -> int:
        return len(self.records)

    def save(self) -> None:
        lines = [self.records[key].to_json()
                 for key in sorted(self.records)]
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
