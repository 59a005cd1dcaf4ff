"""Generators for orthogonal matrix groups over GF(q) and tools built on
them: breadth-first closure counting, classical group orders for
comparison, and seeded random walks that sample orthogonal matrices.

The generating set for n x n matrices is
  * the transposition swapping coordinates 0 and 1,
  * the full n-cycle,
  * for n >= 4, a symmetric involution supported on the first four
    coordinates (identity plus theta times the all-ones 4 x 4 block,
    with theta chosen so the result is orthogonal), and
  * the plane map [[a,-b],[b,a]] on coordinates 0 and 1 for the first
    a != 0 solving a^2 + b^2 = 1 other than the identity's (1, 0).
    When some solution has b != 0 this is a proper rotation; for odd q
    with no such solution the scan lands on (a, b) = (-1, 0), a half
    turn, carried as its own generator (n >= 4).  Over GF(2) the scan
    finds nothing.  The half-turn fallback is what the published
    closure orders for q in {3, 5} correspond to; dropping it shrinks
    the n = 4 closures from 384 to 48.

Right multiplication maps each row on its own, so closure enumeration
works on the orbit of the unit rows (about q^(n-1) vectors): a matrix is
the tuple of its n row ids, a generator one image table over the orbit,
and a capped call stops early once the orbit alone exceeds the cap.  The
random walk holds its matrix as n column tuples and folds runs of steps
before it applies them (see random_orthogonal).
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from . import gf
from .errors import DimensionTooSmall, UnsupportedShape
from .matfq import MatrixFq

DEFAULT_CLOSURE_CAP = 1 << 21
DEFAULT_WALK_LENGTH = 64

_State = tuple[int, ...]
_ColOp = Callable[[list], None]


def transvection_matrix(ctx: gf.FieldCtx, n: int) -> MatrixFq:
    """I + theta * (all-ones on the first four coordinates).

    With u the 0/1 indicator of coordinates 0..3, M = I + theta u^T u
    satisfies M M^T = I + (2 theta + 4 theta^2) u^T u, so theta must solve
    2t + 4t^2 = 0: any value works in characteristic 2 (take 1) and
    t = -1/2 = (p-1)/2 works for odd p.  M is symmetric, hence an
    involution as well.
    """
    if n < 4:
        raise DimensionTooSmall("need at least 4 coordinates")
    theta = _theta(ctx)
    entries = []
    for i in range(n):
        for j in range(n):
            v = 1 if i == j else 0
            if i < 4 and j < 4:
                v = ctx.add(v, theta)
            entries.append(v)
    return MatrixFq(ctx, n, n, tuple(entries))


def _theta(ctx: gf.FieldCtx) -> int:
    return 1 if ctx.p == 2 else (ctx.p - 1) // 2


def rotation_matrix(ctx: gf.FieldCtx, n: int) -> Optional[MatrixFq]:
    """Plane rotation [[a,-b],[b,a]] on coordinates 0,1 when the field
    admits a^2 + b^2 = 1 with a, b both nonzero; None otherwise."""
    if n < 2:
        raise DimensionTooSmall("need at least 2 coordinates")
    pair = ctx.unit_circle_pair()
    if pair is None:
        return None
    a, b = pair
    m = MatrixFq.identity(ctx, n)
    entries = list(m.entries)
    entries[0] = a
    entries[1] = ctx.neg(b)
    entries[n] = b
    entries[n + 1] = a
    return MatrixFq(ctx, n, n, tuple(entries))


def half_turn_matrix(ctx: gf.FieldCtx, n: int) -> MatrixFq:
    """diag(-1, -1, 1, ..., 1): the (alpha, beta) = (-1, 0) member of the
    plane-map family."""
    if n < 2:
        raise DimensionTooSmall("need at least 2 coordinates")
    d = [1] * n
    d[0] = d[1] = ctx.neg(1)
    return MatrixFq.diagonal(ctx, tuple(d))


@dataclass(frozen=True)
class OrthoGenSet:
    """The generating matrices for one (ctx, n); every slot past the two
    permutations is optional."""

    ctx: gf.FieldCtx
    n: int
    swap: MatrixFq
    cycle: MatrixFq
    transvection: Optional[MatrixFq]
    rotation: Optional[MatrixFq]
    half_turn: Optional[MatrixFq]
    theta: int
    unit_pair: Optional[tuple[int, int]]

    def matrices(self) -> list[MatrixFq]:
        extras = (self.transvection, self.rotation, self.half_turn)
        return [self.swap, self.cycle] + [m for m in extras if m is not None]

    @functools.cached_property
    def _walk_steps(self) -> list[tuple[int, Callable[[int], _ColOp]]]:
        """(order m, j -> column op of the j-th power) per generator past
        the permutations, in matrices() order; built at the first walk."""
        ctx = self.ctx
        steps = []
        if self.transvection is not None:
            op = _transvection_cols(ctx, self.theta)
            steps.append((2, lambda j: op))
        if self.rotation is not None or self.half_turn is not None:
            a, b = (self.unit_pair if self.rotation is not None
                    else (ctx.neg(1), 0))
            powers = [(1, 0)]           # (x, y) = (a + b i)^j, i^2 = -1
            x, y = a, b
            while (x, y) != (1, 0):
                powers.append((x, y))
                x, y = (ctx.sub(ctx.mul(x, a), ctx.mul(y, b)),
                        ctx.add(ctx.mul(x, b), ctx.mul(y, a)))
            steps.append((len(powers), functools.cache(
                lambda j: _plane_cols(ctx, *powers[j]))))
        return steps


def _swap_sigma(n: int) -> tuple[int, ...]:
    if n < 2:
        return tuple(range(n))
    return (1, 0) + tuple(range(2, n))


@functools.lru_cache(maxsize=None)
def generator_set(ctx: gf.FieldCtx, n: int) -> OrthoGenSet:
    """The generating set for (ctx, n).  It is immutable, so one instance
    per (ctx, n) is built and shared, walk ops included."""
    if n < 1:
        raise DimensionTooSmall("n must be positive")
    swap = MatrixFq.permutation(ctx, _swap_sigma(n))
    cycle = MatrixFq.permutation(ctx, tuple((i + 1) % n for i in range(n)))
    pair = ctx.unit_circle_pair()
    rotation = rotation_matrix(ctx, n) if n >= 2 else None
    half = None
    if n >= 4 and pair is None and ctx.p != 2:
        half = half_turn_matrix(ctx, n)
    return OrthoGenSet(ctx=ctx, n=n, swap=swap, cycle=cycle,
                       transvection=transvection_matrix(ctx, n)
                       if n >= 4 else None,
                       rotation=rotation, half_turn=half,
                       theta=_theta(ctx),
                       unit_pair=pair)


# ---------------------------------------------------------------------------
# right-multiplication ops on a list of column tuples, rewritten in place

def _plane_cols(ctx: gf.FieldCtx, a: int, b: int) -> _ColOp:
    """Right multiply by [[a,-b],[b,a]] on coordinates 0 and 1: columns
    x, y become a x + b y and a y - b x."""
    q, nb = ctx.q, ctx.neg(b)
    tabled = q <= gf._FLAT_MAX
    if tabled:
        at, mt = ctx.tables()
        ma, mb, mnb = (mt[c * q:(c + 1) * q] for c in (a, b, nb))
    add, mul = ctx.add, ctx.mul

    def op(cols: list) -> None:
        x, y = cols[0], cols[1]
        if tabled:
            cols[0] = tuple([at[ma[u] * q + mb[v]] for u, v in zip(x, y)])
            cols[1] = tuple([at[mnb[u] * q + ma[v]] for u, v in zip(x, y)])
        else:
            cols[0] = tuple([add(mul(u, a), mul(v, b)) for u, v in zip(x, y)])
            cols[1] = tuple([add(mul(u, nb), mul(v, a)) for u, v in zip(x, y)])

    return op


def _transvection_cols(ctx: gf.FieldCtx, theta: int) -> _ColOp:
    """Right multiply by I + theta * ones(4): each row gains theta times
    the sum of its first four entries, on those same four columns."""
    q = ctx.q
    tabled = q <= gf._FLAT_MAX
    if tabled:
        at, mt = ctx.tables()
        mth = mt[theta * q:(theta + 1) * q]
    add, mul = ctx.add, ctx.mul

    def op(cols: list) -> None:
        four = cols[:4]
        if tabled:
            ts = [mth[at[at[a * q + b] * q + at[c * q + d]]]
                  for a, b, c, d in zip(*four)]
            cols[:4] = [tuple([at[x * q + t] for x, t in zip(col, ts)])
                        for col in four]
        else:
            ts = [mul(theta, add(add(a, b), add(c, d)))
                  for a, b, c, d in zip(*four)]
            cols[:4] = [tuple(map(add, col, ts)) for col in four]

    return op


# ---------------------------------------------------------------------------

def _row_orbit(gens: OrthoGenSet, cap: int
               ) -> Optional[tuple[list[_State], list[list[int]]]]:
    """The orbit of the unit rows under the generators, ids in discovery
    order (e_i has id i), and per generator of matrices() an image table:
    images[g][i] is the id of vecs[i] * g.  None as soon as the orbit has
    more than cap vectors."""
    ctx, n, q = gens.ctx, gens.n, gens.ctx.q
    tabled = q <= 1 << 10
    at, mt = ctx.tables() if tabled else (None, None)
    # generator columns as nonzero (row, entry) pairs, entry as mul-table row
    gcols = [[[(i, mt[c * q:(c + 1) * q] if tabled else c)
               for i, c in enumerate(M.col(j)) if c] for j in range(n)]
             for M in gens.matrices()]
    vecs = MatrixFq.identity(ctx, n).rows()
    ids = {v: i for i, v in enumerate(vecs)}
    images: list[list[int]] = [[] for _ in gcols]
    for v in vecs:                      # vecs grows while it is walked
        for cols, table in zip(gcols, images):
            row = []
            for col in cols:
                s = 0
                for i, c in col:
                    s = (at[s * q + c[v[i]]] if tabled
                         else ctx.add(s, ctx.mul(v[i], c)))
                row.append(s)
            w = tuple(row)
            j = ids.get(w)
            if j is None:
                if len(vecs) >= cap:
                    return None
                j = ids[w] = len(vecs)
                vecs.append(w)
            table.append(j)
    return vecs, images


def group_closure_order(gens: OrthoGenSet,
                        cap: int = DEFAULT_CLOSURE_CAP) -> tuple[int, bool]:
    """Size of the group generated by the set, by BFS from the identity
    over states of n row ids (see _row_orbit).

    Returns (order, True) when the closure finished, or (cap, False)
    exactly when the order exceeds the cap: the moment one more state
    would push past it, or before the BFS when the orbit alone has more
    than cap vectors (the n-cycle makes it one orbit, and |G| >= |orbit|).
    """
    action = _row_orbit(gens, cap)
    if action is None:
        return cap, False
    steps = [table.__getitem__ for table in action[1]]
    ident = tuple(range(gens.n))
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        state = frontier.popleft()
        for step in steps:
            nxt = tuple(map(step, state))
            if nxt not in seen:
                if len(seen) >= cap:
                    return cap, False
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen), True


def classical_orthogonal_order(n: int, q: int) -> int:
    """|O_n(q)| for odd prime powers q, both parities of n.

    For even n = 2m the sign is +1 exactly when (-1)^m is a square in
    GF(q), i.e. when m is even or q = 1 mod 4.
    """
    if n < 1:
        raise DimensionTooSmall("n must be positive")
    if q % 2 == 0:
        raise UnsupportedShape("even characteristic has no single O_n(q)")
    if n % 2:
        m = n // 2
        order = 2 * q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    m = n // 2
    eps = 1 if (m % 2 == 0 or q % 4 == 1) else -1
    order = 2 * q ** (m * (m - 1)) * (q ** m - eps)
    for i in range(1, m):
        order *= q ** (2 * i) - 1
    return order


def random_orthogonal(gens: OrthoGenSet,
                      walk_length: int = DEFAULT_WALK_LENGTH,
                      seed: int = 0) -> MatrixFq:
    """Random walk over the generated group: each step right-multiplies by
    a fresh uniform permutation or by one of the generators past the two
    fixed permutations.  Same seed, same matrix.

    Each step draws rng.randrange(kinds), then for a permutation
    rng.shuffle(sigma), so the rng order does not depend on the folding:
    back-to-back permutations compose into one gather, and a run of one
    other generator becomes its power modulo its order (involutions cancel
    in pairs; j rotations by a + b i make one by (a + b i)^j).  What is
    left acts on n column tuples: a permutation gathers them, the plane
    maps rewrite columns 0 and 1, the transvection columns 0..3."""
    n = gens.n
    rng = random.Random(seed)
    steps = gens._walk_steps
    kinds = 1 + len(steps)
    folded: list[list] = []             # [kind, gather or exponent]
    for _ in range(walk_length):
        kind = rng.randrange(kinds)
        top = folded[-1] if folded and folded[-1][0] == kind else None
        if kind == 0:
            sigma = list(range(n))
            rng.shuffle(sigma)
            gather = [0] * n            # column j of the product is
            for i, s in enumerate(sigma):   # column gather[j] of the input
                gather[s] = i
            if top is None:
                folded.append([0, gather])
            else:
                top[1] = [top[1][j] for j in gather]
        elif top is None:
            folded.append([kind, 1])
        else:
            top[1] = (top[1] + 1) % steps[kind - 1][0]
            if not top[1]:
                folded.pop()
    cols = MatrixFq.identity(gens.ctx, n).rows()
    for kind, arg in folded:
        if kind:
            steps[kind - 1][1](arg)(cols)
        else:
            cols = [cols[j] for j in arg]
    return MatrixFq(gens.ctx, n, n, [x for row in zip(*cols) for x in row])
