"""Generators for orthogonal matrix groups over GF(q) and tools built on
them: exact group orders from a stabilizer chain, classical group orders
for comparison, and seeded random walks that sample orthogonal matrices.

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

group_closure_order builds a deterministic Schreier-Sims stabilizer chain
(Sims 1970; Seress, Permutation Group Algorithms, 2003) with base
e_0..e_{n-1}: a matrix sends base point e_i to its row i, so the basic
orbits are sets of unit-norm row vectors (about q^(n-1-l) at level l),
built by vector-matrix products, and the order is the product of their
sizes.  A capped call stops as soon as the partial orbits prove the order
exceeds the cap.  The random walk holds its matrix as n column tuples and
folds runs of steps before it applies them (see random_orthogonal).  Both
do their arithmetic by indexing ``ctx.tables()``.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
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
    adds, muls = ctx.tables()
    ma, mb, mnb = muls[a], muls[b], muls[ctx.neg(b)]

    def op(cols: list) -> None:
        x, y = cols[0], cols[1]
        cols[0] = tuple([adds[ma[u]][mb[v]] for u, v in zip(x, y)])
        cols[1] = tuple([adds[mnb[u]][ma[v]] for u, v in zip(x, y)])

    return op


def _transvection_cols(ctx: gf.FieldCtx, theta: int) -> _ColOp:
    """Right multiply by I + theta * ones(4): each row gains theta times
    the sum of its first four entries, on those same four columns."""
    adds, muls = ctx.tables()
    mth = muls[theta]

    def op(cols: list) -> None:
        four = cols[:4]
        ts = [mth[adds[adds[a][b]][adds[c][d]]] for a, b, c, d in zip(*four)]
        cols[:4] = [tuple([adds[x][t] for x, t in zip(col, ts)])
                    for col in four]

    return op


# ---------------------------------------------------------------------------
# stabilizer chain with base e_0..e_{n-1}

_Gen = Callable[[_State], _State]          # v -> v * g for a generator g


class _Chain:
    """A Schreier-Sims stabilizer chain for one group_closure_order call.

    Level l holds the strong generators that fix e_0..e_{l-1} and the
    orbit of e_l under them, with a Schreier tree (parent point and the
    generator that maps it there) from which transversal elements u_b,
    e_l u_b = b, are built on demand.  A group element is its tuple of n
    rows, so the image of base point i is row i, and its inverse is its
    transpose.  Orbits only grow, and every point keeps its tree edge, so
    a transversal once built stays valid.
    """

    def __init__(self, ctx: gf.FieldCtx, n: int, cap: int):
        self.n, self.cap = n, cap
        units = self.units = tuple(MatrixFq.identity(ctx, n).rows())
        self.pts: list[list[_State]] = [[e] for e in units]
        self.idx: list[dict[_State, int]] = [{e: 0} for e in units]
        self.parent = [array("l", [-1]) for _ in units]
        self.via: list[list[Optional[_Gen]]] = [[None] for _ in units]
        self.gens: list[list[_Gen]] = [[] for _ in units]
        # per level and generator: how many orbit points have had their
        # Schreier generator with it sifted
        self.done: list[list[int]] = [[] for _ in units]
        # a column entry (i, muls[c]) stands for the product v[i] * c
        adds, muls = ctx.tables()

        def combine(v: _State, col: list) -> int:
            s = 0
            for i, c in col:
                s = adds[s][c[v[i]]]
            return s
        self._muls, self._combine = muls, combine
        # transversals as (rows, dividing columns); e_l's is the identity
        self.trans: list[dict[int, tuple]] = [
            {0: (units, [[(i, muls[1])] for i in range(l + 1, n)])}
            for l in range(n)]

    def _gen(self, rows: tuple[_State, ...]) -> _Gen:
        """v -> v * rows: a gather for a permutation matrix, sums over each
        column's nonzero entries otherwise."""
        cols = [[(i, c) for i, c in enumerate(col) if c]
                for col in zip(*rows)]
        if all(len(col) == 1 and col[0][1] == 1 for col in cols):
            src = [col[0][0] for col in cols]
            return lambda v: tuple([v[i] for i in src])
        muls, combine = self._muls, self._combine
        sparse = [[(i, muls[c]) for i, c in col] for col in cols]
        return lambda v: tuple([combine(v, col) for col in sparse])

    def add(self, rows: tuple[_State, ...], top: int, first: int) -> bool:
        """Make rows, which fix e_0..e_{top-1} and move e_top, a strong
        generator of levels 0..top, and extend the orbits of levels
        first..top by it (the orbits above first already hold it).  False
        once the product of the orbit sizes passes the cap."""
        g = self._gen(rows)
        for l in range(top + 1):
            self.gens[l].append(g)
            self.done[l].append(0)
        return all(self._grow(l, g) for l in range(first, top + 1))

    def _grow(self, l: int, g: _Gen) -> bool:
        """Close level l's orbit under its generators after g joined them:
        old points under g, new points under all."""
        pts, idx = self.pts[l], self.idx[l]
        parent, via = self.parent[l], self.via[l]
        others = 1
        for k, p in enumerate(self.pts):
            if k != l:
                others *= len(p)
        limit = self.cap // others
        old = len(pts)
        gens = self.gens[l]
        b = 0
        while b < len(pts):
            beta = pts[b]
            for h in (g,) if b < old else gens:
                img = h(beta)
                if img not in idx:
                    if len(pts) >= limit:
                        return False
                    idx[img] = len(pts)
                    pts.append(img)
                    parent.append(b)
                    via.append(h)
            b += 1
        return True

    def _u(self, l: int, j: int) -> tuple[tuple[_State, ...], list]:
        """The transversal element for point j of level l, built down its
        Schreier tree from the nearest point that has one, with the
        columns that divide by it: v * u^T takes the dot product of v with
        each row of u, and rows 0..l of u only meet the zero entries of
        the rows divided (see _div)."""
        trans, parent, via = self.trans[l], self.parent[l], self.via[l]
        path = []
        while j not in trans:
            path.append(j)
            j = parent[j]
        u = trans[j]
        muls = self._muls
        for j in reversed(path):
            rows = u[0][:l] + tuple(map(via[j], u[0][l:]))
            u = trans[j] = rows, [[(i, muls[c]) for i, c in enumerate(w) if c]
                                  for w in rows[l + 1:]]
        return u

    def _div(self, v: _State, u: tuple[tuple[_State, ...], list], l: int
             ) -> _State:
        """v * u^T for a row v below row l of an element whose row l is
        row l of u.  The quotient is orthogonal and fixes e_0..e_l, so its
        rows below l have zeros in entries 0..l."""
        combine = self._combine
        return (0,) * (l + 1) + tuple([combine(v, col) for col in u[1]])

    def _sift(self, tail: list[_State], l: int
              ) -> Optional[tuple[tuple[_State, ...], int]]:
        """Sift the element of level l with rows tail (rows l..n-1; the
        rows above are e_0..e_{l-1}).  None when it is in the chain, else
        the residue's rows and the level whose orbit misses its row."""
        units = self.units
        while tail:
            beta = tail[0]
            if beta != units[l]:
                j = self.idx[l].get(beta)
                if j is None:
                    return units[:l] + tuple(tail), l
                u = self._u(l, j)
                tail = [self._div(v, u, l) for v in tail[1:]]
            else:
                tail = tail[1:]
            l += 1
        return None

    def _schreier(self, l: int
                  ) -> Optional[tuple[tuple[_State, ...], int]]:
        """Sift the untested Schreier generators u_b s u_{b s}^T of level
        l; the first residue that is not the identity, or None."""
        pts, idx = self.pts[l], self.idx[l]
        parent, via, done = self.parent[l], self.via[l], self.done[l]
        for k, g in enumerate(self.gens[l]):
            while done[k] < len(pts):
                b = done[k]
                done[k] = b + 1
                j = idx[g(pts[b])]
                if parent[j] == b and via[j] is g:
                    continue            # tree edge: u_b s = u_{b s}
                ub, uj = self._u(l, b), self._u(l, j)
                res = self._sift([self._div(g(v), uj, l)
                                  for v in ub[0][l + 1:]], l + 1)
                if res is not None:
                    return res
        return None

    def start(self, matrices: list[MatrixFq]) -> bool:
        """Make each matrix that is not the identity a strong generator of
        the levels up to the first base point it moves.  False once the
        orbits already pass the cap."""
        n, units = self.n, self.units
        for M in matrices:
            rows = tuple(M.rows())
            moved = [i for i in range(n) if rows[i] != units[i]]
            if moved and not self.add(rows, moved[0], 0):
                return False
        return True

    def close(self) -> bool:
        """Complete the chain by deterministic Schreier-Sims: deepest level
        first, and back down to a level whenever it gains a generator.
        False once the order provably passes the cap."""
        l = self.n - 1
        while l >= 0:
            res = self._schreier(l)
            if res is None:
                l -= 1
                continue
            rows, top = res
            if not self.add(rows, top, l + 1):
                return False
            l = top
        return True


def group_closure_order(gens: OrthoGenSet,
                        cap: int = DEFAULT_CLOSURE_CAP) -> tuple[int, bool]:
    """Size of the group generated by the set, from a deterministic
    Schreier-Sims stabilizer chain with base e_0..e_{n-1} (see _Chain):
    the product of the basic orbit sizes.

    Returns (order, True), or (cap, False) exactly when the order exceeds
    the cap.  Every partial orbit lies inside its true basic orbit, so the
    product of the partial orbit sizes bounds |G| from below, and the call
    gives up the moment that bound passes the cap.  Nothing is kept
    between calls.
    """
    chain = _Chain(gens.ctx, gens.n, cap)
    if not (chain.start(gens.matrices()) and chain.close()):
        return cap, False
    return math.prod(len(p) for p in chain.pts), True


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
