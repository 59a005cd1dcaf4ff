"""Linear codes over a field context: duals, hulls, LCD tests, minimum
distance, and a JSONL record store.

A code is held as a full-rank generator matrix.  ``from_generator``
row-reduces arbitrary input to a canonical basis; construction routines
that care about the *shape* of a generator (orthogonal rows, block
structure) use ``from_basis`` to keep their matrix as built.  Code
identity is always compared through the canonical reduced form, so the
two paths agree on what the code is.

The LCD test follows the determinant criterion: C intersects its dual
trivially exactly when det(G G^T) is nonzero, and more generally
dim(C meet C^perp) = k - rank(G G^T).  C and C^perp have the same hull,
so it is also (n - k) - rank(H H^T) for a parity-check matrix H, and
``hull_dim`` reads the smaller of the two Gram matrices: H H^T when
2k > n, G G^T otherwise.  Each code keeps its dual once built, so the
column-subset scan and the hull share one nullspace.  ``brute_hull``
re-derives the hull by enumerating codewords, which is the oracle the
fast path is tested against.

Minimum distance has four exact strategies (``LinearCode.distance``):
message enumeration and the parity-check column-subset scan, priced
against each other; disjoint information sets (Brouwer and Zimmermann),
which a plain call runs in place of enumeration when they are predicted
to visit far fewer messages; and the Singleton certificate, run by rule.
A code is MDS, d = n - k + 1, exactly when every k columns of G are
independent, or every n - k columns of H; the certificate tests that one
size when the code can be MDS, and when it finds a dependent set the
strategy chosen by price answers.  A threshold call at t = n - k + 1,
the MDS question, is answered by the certificate on G alone: a dependent
set there proves d <= n - k < t.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
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
# DistanceResult.method: the strategy that answered
ENUMERATION = "enumeration"
INFORMATION_SETS = "information_sets"
SUBSETS = "subsets"
TRIVIAL = "trivial"
SINGLETON = "singleton"

DEFAULT_DISTANCE_BUDGET = 1 << 26
DEFAULT_HULL_BUDGET = 1 << 16

# The time per unit of work, in ns, of the two strategies that _plan
# prices against each other, fitted on the benchmark's certify codes by
# tools/fit_distance_costs.py: enumeration pays per message and per leaf
# (q messages each), the column-subset scan a fixed part (the dual, the
# set-up) plus one per leaf subset and parity-check row.  The Singleton
# certificate is not priced.
_ENUM_MESSAGE_NS = 85
_ENUM_LEAF_NS = 600
_SUBSETS_FIXED_NS = 110_000
_SUBSETS_LEAF_ROW_NS = 75

# a plain call that would enumerate runs the information sets instead when
# they are predicted to visit fewer than 1 / _SETS_MARGIN of the messages
_SETS_MARGIN = 2


class DistanceResult(NamedTuple):
    value: int
    status: str
    upper: Optional[int] = None
    # upper: on a lower bound, d <= upper.  A threshold call stopped by
    # enumeration gives the weight of a codeword it found; one stopped by a
    # failed Singleton certificate the proven bound n - k, with no codeword.
    # method: ENUMERATION, INFORMATION_SETS, SUBSETS, SINGLETON or TRIVIAL,
    # and work: messages visited (by enumeration, or over every information
    # set), leaf subsets charged against the budget (never more than the
    # budget), or the C(n, k) subsets the certificate tested; they follow
    # the plan, while value, status and upper do not
    method: Optional[str] = None
    work: int = 0


class LinearCode:
    """[n, k] linear code held as a full-rank generator matrix."""

    __slots__ = ("ctx", "n", "k", "G", "_canon", "_dist", "_hull", "_dual")

    def __init__(self, G: MatrixFq):
        # internal; use from_generator / from_basis
        self.ctx = G.ctx
        self.n = G.c
        self.k = G.r
        self.G = G
        self._canon = None
        self._dist = None
        self._hull = None
        self._dual = None

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
        """C^perp, built once and kept: the subset scan and the hull share
        its nullspace."""
        if self._dual is None:
            if self.k == 0:
                self._dual = LinearCode.full(self.ctx, self.n)
            else:
                H = self.canonical().nullspace()
                self._dual = (LinearCode.from_basis(H, verify_rank=False)
                              if H.r else LinearCode.zero(self.ctx, self.n))
        return self._dual

    def gram(self) -> MatrixFq:
        return self.G.gram()

    def hull_dim(self) -> int:
        """dim(C meet C^perp), kept once computed, from the smaller Gram
        matrix: C and C^perp have the same hull, so it is k - rank(G G^T)
        and also (n - k) - rank(H H^T).  When 2k > n it is read from the
        kept dual's H H^T, otherwise from G G^T: 0 exactly when
        det(G G^T) != 0, and a singular Gram matrix reads its rank from the
        same elimination."""
        if self._hull is None:
            if 2 * self.k > self.n:
                self._hull = self.dual().hull_dim()
            else:
                gram = self.gram()
                self._hull = 0 if gram.det() else self.k - gram.rank()
        return self._hull

    def is_lcd(self) -> bool:
        return self.hull_dim() == 0

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
        """Minimum distance by one of four exact strategies: message
        enumeration, which visits (q^k - 1) / (q - 1) messages; disjoint
        information sets, which visit the messages by weight and stop when
        their lower bound meets the lightest codeword seen; the
        parity-check column-subset scan; and the Singleton certificate,
        which proves d = n - k + 1 from the subsets of one size.

        Enumeration may run only when q^k <= budget.  Then its cost and
        the scan's are estimated first (``_plan``), and the scan runs
        instead only when it is estimated faster and its whole budget
        charge fits, so its answer is exact too.  Where enumeration would
        run on a plain call, the information sets run instead when they are
        predicted to visit well under its messages
        (``_distance_by_information_sets``, which hands back to enumeration
        when the sets it finds predict more).  When q^k > budget the scan
        runs, and a budget blow-up there degrades to a certified lower
        bound plus a generator-row upper bound.  A k = n code has d = 1.

        On a plain call (t = 0, or q^k > budget; below) the certificate is
        tried first, by rule and not by price, on a code whose lightest
        generator row weighs at least n - k + 1 (every MDS code passes),
        when the strategy above would return an exact value anyway
        (q^k <= budget, or the scan's whole charge fits) and its own charge
        of C(n, r) r^3 fits.  It tests whether every r columns of M are
        independent, M being the
        generator (r = k) when k <= n - k and the parity-check matrix
        (r = n - k) otherwise (``_every_column_subset_independent``), with
        the last two columns of each subset compared as projective points.
        When they are, d = n - k + 1; when some are not, the strategy above
        runs as if the certificate had not.  So a plain call's value,
        status and upper never depend on whether it ran.

        ``at_least = t > 0`` asks only whether d >= t.  When q^k <= budget
        it is answered without the plan above.  At t = n - k + 1 it is the
        MDS question, and the certificate answers it on G alone whenever its
        charge C(n, k) k^3 fits: d = n - k + 1, exact and cached, or else
        some k columns of G are dependent, so a nonzero codeword vanishes
        on them and d <= n - k < t, which returns (1, lower_bound, n - k)
        uncached.
        Otherwise it enumerates, stops at the first codeword of weight
        w < t and returns (1, lower_bound, w), not cached; when d >= t the
        enumeration runs to the end and the result is the exact d.  A
        threshold code is often new for each call, as in search, so it never
        builds the dual for the certificate.  When q^k > budget t is not
        read: the subset scan's iterative deepening already stops at d.

        The result's ``method`` names the strategy that answered and
        ``work`` its messages visited (over every information set, for
        INFORMATION_SETS), leaf subsets charged, or, for SINGLETON, the
        C(n, k) subsets tested.  A negative budget raises InvalidValue."""
        if budget < 0:
            raise InvalidValue(f"distance budget must be >= 0, got {budget}")
        if self.k == 0:
            raise EmptyResult("zero code has no minimum distance")
        if self._dist is not None and self._dist.status == EXACT:
            return self._dist
        n, k = self.n, self.k
        if k == n:
            self._dist = DistanceResult(1, EXACT, method=TRIVIAL)
            return self._dist
        fallback, side = self._plan(budget, at_least)
        if side is not None and _every_column_subset_independent(
                self.ctx, (self.G if side == "G" else self.dual().G).rows()):
            result = DistanceResult(n - k + 1, EXACT, None, SINGLETON,
                                    comb(n, k))
        elif fallback is None:
            # some k columns of G are dependent: d <= n - k < at_least
            return DistanceResult(1, LOWER_BOUND, n - k, SINGLETON,
                                  comb(n, k))
        elif fallback == ENUMERATION:
            w, seen = _distance_by_enumeration(self.G.rows(), self.ctx,
                                               n, at_least)
            if w < at_least:
                return DistanceResult(1, LOWER_BOUND, w, ENUMERATION, seen)
            result = DistanceResult(w, EXACT, None, ENUMERATION, seen)
        elif fallback == INFORMATION_SETS:
            w, seen, method = _distance_by_information_sets(
                self.G.rows(), self.ctx, n)
            result = DistanceResult(w, EXACT, None, method, seen)
        else:
            value, exact, leaves = _distance_by_column_subsets(
                self.dual().G, n, budget)
            upper = None if exact else min(self.G.row_weights())
            result = DistanceResult(value, EXACT if exact else LOWER_BOUND,
                                    upper, SUBSETS, leaves)
        self._dist = result
        return result

    def _plan(self, budget: int,
              at_least: int) -> tuple[Optional[str], Optional[str]]:
        """(the strategy that answers when the Singleton certificate does
        not run or finds a dependent set, ENUMERATION, INFORMATION_SETS or
        SUBSETS, or None when a failed certificate answers by itself; the
        side the certificate tests first, "G", "H" or None), for
        0 < k < n.

        A threshold call (t > 0) with q^k <= budget enumerates, unless
        t = n - k + 1 and the certificate on G, charged C(n, k) k^3, fits
        the budget: then it is (None, "G").  Enumeration visits
        (q^k - 1) / (q - 1) messages and (q^k - 1) / (q (q - 1)) + 1 leaves.

        Otherwise the scan stops at d, which is at most u, the smaller of
        n - k (it has no pass past rows(H) = n - k) and the lightest
        generator row.  So it charges at most the sum over w <= u of
        C(n, w) rows(H) w^2, and takes about the fixed cost plus rows(H)
        per leaf subset in that range.  Enumeration runs when q^k <= budget
        and the scan is not both estimated faster and sure to fit the
        budget.  Such a plain call runs the information sets instead when
        _SETS_MARGIN times their predicted messages is below enumeration's,
        predicted by ``_information_set_messages`` with floor(n / k) sets
        and the lightest generator row for d.  The sets found may be fewer
        or their rows heavier; when they predict more messages than
        enumeration visits, the run hands over to it.  The certificate is
        not priced: it runs when the lightest
        generator row exceeds n - k, that strategy's answer is exact, and
        its charge C(n, r) r^3, the scan's rule for its C(n, r) subsets of
        size r, fits; on the side with fewer rows, G on a tie since it
        needs no dual."""
        q, n, k = self.ctx.q, self.n, self.k
        enumerable = q ** k <= budget
        if enumerable:
            if at_least > 0:
                mds = at_least == n - k + 1 and comb(n, k) * k ** 3 <= budget
                return (None, "G") if mds else (ENUMERATION, None)
            messages = (q ** k - 1) // (q - 1)
            enum_ns = (_ENUM_MESSAGE_NS * messages
                       + _ENUM_LEAF_NS * (messages // q + 1))
        lightest = min(self.G.row_weights())
        rows_h = n - k
        scan_ns, charge = _SUBSETS_FIXED_NS, 0
        for w in range(1, min(rows_h, lightest) + 1):
            leaves = comb(n, w)
            scan_ns += _SUBSETS_LEAF_ROW_NS * rows_h * leaves
            charge += leaves * rows_h * w * w
        fallback = (ENUMERATION if enumerable and (scan_ns >= enum_ns
                                                   or charge > budget)
                    else SUBSETS)
        if fallback == ENUMERATION and (
                _SETS_MARGIN * _information_set_messages(q, k, n // k,
                                                         lightest)
                < messages):
            fallback = INFORMATION_SETS
        r = min(k, rows_h)
        if (lightest <= rows_h or not (enumerable or charge <= budget)
                or comb(n, r) * r ** 3 > budget):
            return fallback, None
        return fallback, "G" if k <= rows_h else "H"

    def classify(self) -> str:
        """Singleton classification; needs an exactly known distance."""
        if self._dist is None or self._dist.status != EXACT:
            raise DistanceNotExact("compute an exact distance first")
        return singleton_class(self.n, self.k, self._dist.value)

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
    """Raised inside the enumeration at a codeword lighter than at_least.
    On its way out it counts the messages visited: ``seen`` starts as the
    stopping leaf's and each level adds its earlier children's, which it
    finds from ``vec``, the packed codeword of the child it came from."""

    def __init__(self, vec: int, seen: int):
        super().__init__()
        self.vec, self.seen = vec, seen


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


def _word_ops(ctx: gf.FieldCtx, n: int) -> tuple:
    """(pack, sums, scaled) on the packed words of ``_words(ctx, n)``:
    pack(vec) is the word of a length-n vector, sums(xs, ys) the words
    x + y for y in ys and x in xs, in that order, and scaled(row, negate)
    the words c * s * row for c = 1 .. q - 1, s being -1 when negate is
    true and 1 otherwise.

    Code c = d p^j + r (r < p^j) is the element d * beta_j + r, beta_j
    being code p^j, so for each digit j the d * s * beta_j * row (0 < d < p)
    come by doubling from one packed row and are added to the p^j
    multiples built so far."""
    p, muls = ctx.p, ctx.tables()[1]
    width, shift, spread, carry, top = _words(ctx, n)[:5]

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

    def scaled(row: Sequence[int], negate: bool) -> list[int]:
        sign = p - 1 if negate else 1
        mults = [0]
        for j in range(ctx.m):
            beta = sign * p ** j
            if beta == 1:
                ds = [pack(row)]
            else:
                mb = muls[beta]
                ds = [pack([mb[x] for x in row])]
            while len(ds) < p - 1:
                ds += sums([ds[-1]], ds)
            ds = ds[:p - 1]
            mults += sums(mults, ds) if j else ds
        return mults[1:]

    return pack, sums, scaled


def _distance_by_enumeration(rows: Sequence[Sequence[int]], ctx: gf.FieldCtx,
                             n: int, at_least: int = 0) -> tuple[int, int]:
    """Minimum weight over one representative per scalar class: messages are
    scanned with their first nonzero coefficient pinned to 1, and at each
    leaf the last row's q - 1 multiples are tried in one loop.  Returns
    (w, messages visited).  Stops at the first codeword of weight
    w < at_least; any other w is the exact minimum, after all
    (q^k - 1) / (q - 1) messages.

    Codewords are packed into ints (``_words``).  A leaf's codeword
    vec + c * last is zero exactly where vec equals -c * last, so the leaf
    holds the last row's multiples negated, and each message costs one XOR
    and one popcount."""
    q, k = ctx.q, len(rows)
    low, high = _words(ctx, n)[5:]
    pack, sums, scaled = _word_ops(ctx, n)
    # multiples[i - 1][c - 1] = c * s * rows[i] for c = 1 .. q - 1, with
    # s = -1 on the last row and 1 on the others (the lead row's
    # coefficient is pinned to 1)
    multiples = [scaled(rows[i], i == k - 1) for i in range(1, k)]
    best = n + 1

    def rec(i: int, vec: int):
        nonlocal best
        if i < k - 1:
            kids = sums([vec], multiples[i - 1])
            try:
                rec(i + 1, vec)
                for u in kids:
                    rec(i + 1, u)
            except _Below as below:
                # the children before the one that stopped, vec itself
                # first, held q^(k-i-1) messages each
                before = 0 if below.vec == vec else 1 + kids.index(below.vec)
                below.seen += before * q ** (k - i - 1)
                below.vec = vec
                raise
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
                # the loop stopped at u, or ran to the last multiple
                raise _Below(vec, 2 + multiples[i - 1].index(u)
                             if i < k else 1)

    seen = 0
    try:
        for lead in range(k):
            rec(lead + 1, pack(rows[lead]))
            seen += q ** (k - lead - 1)
    except _Below as below:
        seen += below.seen
    return best, seen


def _information_set_messages(q: int, k: int, m: int, d: int) -> int:
    """The messages m disjoint information sets visit when each runs every
    weight w <= W and the lightest codeword seen weighs d: W is the least
    w with m (w + 1) >= d, or k.  A set holds C(k, w) (q - 1)^(w - 1)
    messages of weight w with the first nonzero coefficient 1.  The search
    can stop sooner, at the first set of level W that lifts the bound to
    d, so this is the price that _plan and the hand-over compare."""
    total = 0
    for w in range(1, k + 1):
        total += comb(k, w) * (q - 1) ** (w - 1)
        if m * (w + 1) >= d:
            break
    return m * total


def _distance_by_information_sets(rows: Sequence[Sequence[int]],
                                  ctx: gf.FieldCtx,
                                  n: int) -> tuple[int, int, str]:
    """Minimum weight by disjoint information sets, after Brouwer and
    Zimmermann (Zimmermann 1996; Grassl 2006).  Returns (d, messages
    visited, the strategy that answered): INFORMATION_SETS, or ENUMERATION
    when the sets found would visit more messages than it does.

    Each set is found by ``gf._rref_rows``: the first on the rows as given,
    each later one on a copy whose columns in no set yet come first, kept
    only when all k pivots fall among those columns (a set of lower rank
    would add nothing to the bound without enumerating its own messages).
    A set's reduced rows are a systematic generator, so a message of
    weight w there gives a codeword of weight at least w on the set.  The
    rows keep each copy's column order, which no weight depends on.

    For w = 1, 2, ... and each set j of the m in turn, every message of
    weight exactly w with its first nonzero coefficient 1 is visited, the
    last position's q - 1 multiples at one leaf, by XOR and popcount as in
    ``_distance_by_enumeration`` (c and -c range over the same units, so
    the multiples serve negated).  Once set j has finished weight w, a
    codeword not yet seen weighs at least w + 1 on sets 1 .. j and w on the
    others: d >= m w + j, and the search stops when that reaches the
    lightest codeword seen.  The first set's weight-k messages complete
    every scalar class, so the answer is always exact."""
    q, k = ctx.q, len(rows)
    low, high = _words(ctx, n)[5:]
    pack, sums, scaled = _word_ops(ctx, n)
    sets, free = [], list(range(n))
    while len(free) >= k:
        taken = set(free)
        order = free + [c for c in range(n) if c not in taken]
        reduced = [[row[c] for c in order] for row in rows]
        pivots = gf._rref_rows(ctx, reduced)[0]
        if pivots[-1] >= len(free):
            break
        sets.append(reduced)
        used = {order[c] for c in pivots}
        free = [c for c in free if c not in used]
    m, messages = len(sets), (q ** k - 1) // (q - 1)
    # each set's lightest row: its messages of weight 1
    first = [n - max(row.count(0) for row in reduced) for reduced in sets]
    if _information_set_messages(q, k, m, min(first)) > messages:
        return (*_distance_by_enumeration(rows, ctx, n), ENUMERATION)

    def lightest_of_weight(mults: list[list[int]], tails: list[list[int]],
                           w: int) -> int:
        best = n + 1

        def rec(vec: int, start: int, left: int):
            nonlocal best
            if left == 1:
                x = min([(((vec ^ u) + low) & high).bit_count()
                         for u in tails[start]])
                if x < best:
                    best = x
                return
            for i in range(start, k - left + 1):
                for u in sums([vec], mults[i]):
                    rec(u, i + 1, left - 1)

        for lead in range(k - w + 1):
            rec(mults[lead][0], lead + 1, w - 1)
        return best

    # built when set j reaches w = 2: mults[i][c - 1] = c * sets[j][i] (row
    # 0 only leads, so only c = 1 there) and tails[i], the multiples of
    # rows i .. k - 1, a leaf's choices
    gens = [None] * m
    best, seen = n + 1, 0
    for w in range(1, k + 1):
        for j in range(m):
            if w == 1:
                x = first[j]
            else:
                if gens[j] is None:
                    mults = [[pack(sets[j][0])]] + [
                        scaled(row, False) for row in sets[j][1:]]
                    gens[j] = mults, [None] + [
                        [u for us in mults[i:] for u in us]
                        for i in range(1, k)]
                x = lightest_of_weight(*gens[j], w)
            best = min(best, x)
            seen += comb(k, w) * (q - 1) ** (w - 1)
            if m * w + j + 1 >= best or w == k:
                return best, seen, INFORMATION_SETS


@lru_cache(maxsize=None)
def _column_reducer(ctx: gf.FieldCtx):
    """(children, pivots) for the depth-first walks over column subsets,
    built once per field, so every walk shares one pivot table.

    A node holds the columns after its prefix reduced modulo the prefix's
    span, pivot coordinates dropped.  ``children(rest, need)`` yields, for
    each rest[i] that leaves at least need - 1 columns after it, the node
    one column deeper: rest[i + 1:] reduced modulo rest[i], which costs one
    scaled-row subtraction per later column.  Those rest[i] must be
    nonzero.  ``pivots[a]`` is the row of -1/a in the muls table, built
    on its first lookup."""
    adds, muls = ctx.tables()

    class Pivots(dict):
        def __missing__(self, a: int):
            row = self[a] = muls[ctx.neg(ctx.inv(a))]
            return row

    pivots = Pivots()

    def children(rest, need: int):
        for i in range(len(rest) - need + 1):
            v = rest[i]
            p = 0
            while not v[p]:
                p += 1
            m = pivots[v[p]]
            vt = [m[x] for x in v[p + 1:]]                   # -v / v[p]
            later = []
            for b in rest[i + 1:]:
                tail = b[p + 1:]
                if b[p]:
                    mb = muls[b[p]]
                    tail = tuple([adds[x][mb[y]] for x, y in zip(tail, vt)])
                later.append(b[:p] + tail if p else tail)
            yield later

    return children, pivots


def _every_column_subset_independent(ctx: gf.FieldCtx,
                                     rows: Sequence[Sequence[int]]) -> bool:
    """Whether every r columns of the full-rank r x n matrix with these
    rows are independent: the Singleton certificate, d = n - k + 1, when
    the rows span an [n, k] code (r = k) or its dual (r = n - k).

    A depth-first walk from the root at size r, in the order of the
    column-subset scan and with its node reduction (``_column_reducer``).
    It does not know that smaller sets are independent, so a column that
    reduces to zero at any node, a zero column of M included, ends it: that
    column and the node's prefix are dependent, and so is every r-set
    holding them.  With two columns to go every later column is a nonzero
    2-vector, and two of them are dependent exactly when they are the same
    projective point, -y/x, or q for x = 0.  So those columns are keyed,
    not reduced pair by pair, and a node with three to go does not build
    its children: for each pivot the later columns are reduced to their
    two coordinates left and keyed at once."""
    q, r = ctx.q, len(rows)
    adds, muls = ctx.tables()
    children, pivots = _column_reducer(ctx)
    zeros = [(0,) * need for need in range(r + 1)]

    def walk(rest, need: int) -> bool:
        if zeros[need] in rest:
            return False
        if need == 2:                       # only at the root, for r = 2
            return len({pivots[x][y] if x else q
                        for x, y in rest}) == len(rest)
        if need != 3:
            return need == 1 or all(walk(later, need - 1)
                                    for later in children(rest, need))
        for i in range(len(rest) - 2):
            v = rest[i]
            # the pivot p and the two coordinates left, s < t
            if v[0]:
                p, s, t = 0, 1, 2
            elif v[1]:
                p, s, t = 1, 0, 2
            else:
                p, s, t = 2, 0, 1
            m = pivots[v[p]]
            # -v / v[p] on the two coordinates left (0 on those before p)
            vs, vt = m[v[s]], m[v[t]]
            keys = set()
            for b in rest[i + 1:]:
                x, y = b[s], b[t]
                if b[p]:
                    mb = muls[b[p]]
                    x, y = adds[x][mb[vs]], adds[y][mb[vt]]
                if x:
                    keys.add(pivots[x][y])
                elif y:
                    keys.add(q)
                else:
                    return False
            if len(keys) < len(rest) - i - 1:
                return False
        return True

    # the answer does not depend on the column order, and from r = 3 on
    # the most numerous nodes, the deep ones, reduce the last columns: put
    # the sparse last
    cols = list(zip(*rows))
    if r >= 3:
        cols.sort(key=lambda col: col.count(0))
    return walk(cols, r)


def _distance_by_column_subsets(H: MatrixFq, n: int,
                                budget: int) -> tuple[int, bool, int]:
    """Smallest number of linearly dependent parity-check columns.

    Iterative deepening over the subset size w; within a size, a depth-first
    walk visits the subsets in ``itertools.combinations`` order.  A node holds
    the columns after its prefix reduced modulo the prefix's span, pivot
    coordinates dropped, so its children reuse its elimination: choosing a
    column costs one scaled-row subtraction per later column, and a leaf is
    dependent exactly when its reduced column is zero.  Every pass walks
    from the root.

    Each size-w subset is charged rows(H) * w^2 against the budget before it
    is tested.  Returns (d, True, leaves) when certified, leaves being the
    number of subsets charged; (w, False, leaves) means only d >= w was
    certified before the budget ran out.
    """
    rows_h = H.r
    if rows_h == 0:
        return 1, True, 0
    children = _column_reducer(H.ctx)[0]

    def scan(rest, need: int):
        """True at the first dependent leaf, False when the budget runs
        out first, None when neither happens below this node."""
        nonlocal ops, leaves
        if need == 1:
            # each leaf is charged before its test: the first `allowed` fit
            allowed = (budget - ops) // cost
            if zero in rest and rest.index(zero) < allowed:
                leaves += rest.index(zero) + 1
                return True
            if len(rest) > allowed:
                leaves += allowed
                return False
            ops += len(rest) * cost
            leaves += len(rest)
            return None
        # every column is nonzero: smaller sets than size w are independent
        for later in children(rest, need):
            found = scan(later, need - 1)
            if found is not None:
                return found
        return None

    cols = [H.col(j) for j in range(n)]
    last = min(n, rows_h)
    ops = leaves = 0
    for w in range(1, last + 1):
        cost = rows_h * w * w
        zero = (0,) * (rows_h - w + 1)
        found = scan(cols, w)
        if found is not None:
            return w, found, leaves
    # any rows(H) + 1 columns are dependent
    return last + 1, True, leaves


def singleton_class(n: int, k: int, d: int) -> str:
    """Singleton classification of an [n, k, d] code."""
    if d == n - k + 1:
        return "MDS"
    if d == n - k:
        return "almost_MDS"
    return "other"


# ---------------------------------------------------------------------------
# persistent records

def read_text(path: str | Path) -> str:
    """A file's text; ParseError when its bytes are not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v) -> bool:
    return isinstance(v, str)


# each CodeRecord field, in declaration order, and the test its JSON value
# must pass; every one but the timestamp is required
_RECORD_FIELDS = {
    "field": _is_str,
    "n": _is_int,
    "k": _is_int,
    "d": lambda v: v is None or _is_int(v),
    "d_status": _is_str,
    "tag": _is_str,
    "provenance": lambda v: isinstance(v, dict),
    "matrix": _is_str,
    "timestamp": _is_int,
}


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
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

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
        missing = set(_RECORD_FIELDS) - {"timestamp"} - set(raw)
        if missing:
            raise ParseError(f"record missing fields {sorted(missing)}")
        raw.setdefault("timestamp", 0)
        wrong = [name for name, ok in _RECORD_FIELDS.items()
                 if not ok(raw[name])]
        if wrong:
            raise ParseError(f"record fields of the wrong type {wrong}")
        return cls(**{name: raw[name] for name in _RECORD_FIELDS})

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
            for line in read_text(self.path).splitlines():
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
