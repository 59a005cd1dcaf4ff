"""Orthogonal matrices over GF(q): exactly uniform samples, generators for
orthogonal groups, and tools built on them: exact group orders from a
stabilizer chain, classical group orders for comparison, and the seeded
random walk over the generated group that earlier search records name.

random_orthogonal samples {A : A A^T = I} exactly uniformly by the
subgroup algorithm (Diaconis and Shahshahani, "The subgroup algorithm for
generating uniform random variables", Prob. Eng. Inf. Sci. 1, 1987).
It builds the sample row by row as it draws, reading its rng's words in
blocks, and can stop at the first row lighter than a given weight.

The generating set for n x n matrices is
  * the transposition swapping coordinates 0 and 1,
  * the full n-cycle,
  * for n >= 4 and every q, a symmetric involution supported on the
    first four coordinates (identity plus theta times the all-ones 4 x 4
    block, with theta chosen so the result is orthogonal), and
  * one plane map [[a,-b],[b,a]] on coordinates 0 and 1 (plane_matrix):
    for n >= 2 the rotation by the first pair with a, b nonzero and
    a^2 + b^2 = 1, which every field but GF(2), GF(3) and GF(5) has;
    failing that, for odd q and n >= 4, the half turn (a, b) = (-1, 0).
    The half-turn fallback is what the published closure orders for q
    in {3, 5} correspond to; dropping it shrinks the n = 4 closures from
    384 to 48.  Over GF(2) there is no plane map.

group_closure_order builds a deterministic Schreier-Sims stabilizer chain
(Sims 1970; Seress, Permutation Group Algorithms, 2003) with base
e_0..e_{n-1}: a matrix sends base point e_i to its row i, so the basic
orbits are sets of unit-norm row vectors (about q^(n-1-l) at level l),
built by vector-matrix products, and the order is the product of their
sizes.  A residue found closing level l joins levels l+1..top only (Holt,
Eick and O'Brien 2005), so level 0 keeps the input generators.  The
product of the partial orbit sizes is a proven lower bound on |G| at every
step, and classical_orthogonal_order (halved when every generator has
square spinor norm) a proven upper bound, so the chain stops as soon as
the two meet; a capped call also stops as soon as the partial orbits prove
the order exceeds the cap.  The random walk applies its steps one at a
time and rewrites, per generator step, only the columns that generator
moves (see random_walk).  The sampler, the chain and the walk do their
arithmetic by indexing ``ctx.tables()``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from . import gf
from .errors import DimensionTooSmall, InvalidValue
from .matfq import MatrixFq

DEFAULT_CLOSURE_CAP = 1 << 21

_State = tuple[int, ...]


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
    theta = 1 if ctx.p == 2 else (ctx.p - 1) // 2
    entries = []
    for i in range(n):
        for j in range(n):
            v = 1 if i == j else 0
            if i < 4 and j < 4:
                v = ctx.add(v, theta)
            entries.append(v)
    return MatrixFq(ctx, n, n, tuple(entries))


def plane_matrix(ctx: gf.FieldCtx, n: int, a: int, b: int) -> MatrixFq:
    """The plane map [[a,-b],[b,a]] on coordinates 0 and 1, the identity
    elsewhere: orthogonal exactly when a^2 + b^2 = 1."""
    if n < 2:
        raise DimensionTooSmall("need at least 2 coordinates")
    entries = list(MatrixFq.identity(ctx, n).entries)
    entries[0], entries[1], entries[n], entries[n + 1] = a, ctx.neg(b), b, a
    return MatrixFq(ctx, n, n, tuple(entries))


@dataclass(frozen=True)
class OrthoGenSet:
    """The generating matrices for one (ctx, n); every slot past the two
    permutations is optional."""

    ctx: gf.FieldCtx
    n: int
    swap: MatrixFq
    cycle: MatrixFq
    transvection: Optional[MatrixFq]
    plane: Optional[MatrixFq]

    def matrices(self) -> list[MatrixFq]:
        extras = (self.transvection, self.plane)
        return [self.swap, self.cycle] + [m for m in extras if m is not None]

    @functools.cached_property
    def _order_bound(self) -> int:
        """A proven upper bound on the generated group's order: the order
        of {A : A A^T = I}, halved for odd q and n >= 2 when every
        generator has square spinor norm, since the group then lies in the
        spinor kernel, of index 2 in O_n(q)."""
        ctx, n = self.ctx, self.n
        bound = classical_orthogonal_order(n, ctx.q)
        if ctx.p != 2 and n >= 2 and all(
                ctx.is_square(spinor_norm(M)) for M in self.matrices()):
            bound //= 2
        return bound


def _swap_sigma(n: int) -> tuple[int, ...]:
    if n < 2:
        return tuple(range(n))
    return (1, 0) + tuple(range(2, n))


@functools.lru_cache(maxsize=None)
def generator_set(ctx: gf.FieldCtx, n: int) -> OrthoGenSet:
    """The generating set for (ctx, n).  It is immutable, so one instance
    per (ctx, n) is built and shared."""
    if n < 1:
        raise DimensionTooSmall("n must be positive")
    swap = MatrixFq.permutation(ctx, _swap_sigma(n))
    cycle = MatrixFq.permutation(ctx, tuple((i + 1) % n for i in range(n)))
    pair = ctx.unit_circle_pair() if n >= 2 else None
    if pair is None and ctx.p != 2 and n >= 4:
        pair = (ctx.neg(1), 0)
    return OrthoGenSet(ctx=ctx, n=n, swap=swap, cycle=cycle,
                       transvection=transvection_matrix(ctx, n)
                       if n >= 4 else None,
                       plane=plane_matrix(ctx, n, *pair) if pair else None)


@functools.lru_cache(maxsize=None)
def _unit_rows(n: int) -> tuple[_State, ...]:
    """e_0..e_{n-1}: the rows, and the columns, of the n x n identity."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# stabilizer chain with base e_0..e_{n-1}

_Gen = Callable[[_State], _State]          # v -> v * g for a generator g


class _Chain:
    """A Schreier-Sims stabilizer chain for one group_closure_order call.

    Level l holds strong generators S_l that fix e_0..e_{l-1} and the
    orbit of e_l under them, with a Schreier tree (parent point and the
    generator that maps it there) from which transversal elements u_b,
    e_l u_b = b, are built on demand.  A group element is its tuple of n
    rows, so the image of base point i is row i, and its inverse is its
    transpose.  Orbits only grow, and every point keeps its tree edge, so
    a transversal once built stays valid.

    S_0 is the inputs.  A residue found closing level l is a Schreier
    generator of S_l times transversal inverses of levels past l, so by
    induction it lies in <S_k> for every k <= l and joins S_k for k > l
    only (Holt, Eick and O'Brien 2005, 4.4.2): Schreier's lemma holds for
    any generating set, so the Schreier generators of S_k still suffice.
    """

    def __init__(self, ctx: gf.FieldCtx, n: int, cap: int,
                 bound: Optional[int] = None):
        # with a proven upper bound on |G| the chain stops where its orbits
        # meet it, and orbits that pass it prove the bound wrong
        self.n, self.bound = n, bound
        self.cap = cap if bound is None else min(cap, bound)
        units = self.units = _unit_rows(n)
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
        generator of levels first..top and extend their orbits by it:
        first is 0 for an input, l + 1 for a residue found closing level l,
        which leaves <S_k> and its orbit as they were for k <= l.  False
        once the product of the orbit sizes passes the cap; AssertionError
        once it passes the bound, which would disprove the bound."""
        g = self._gen(rows)
        for l in range(first, top + 1):
            self.gens[l].append(g)
            self.done[l].append(0)
        if all(self._grow(l, g) for l in range(first, top + 1)):
            return True
        if self.cap == self.bound:
            raise AssertionError(f"orbits pass the upper bound {self.bound}")
        return False

    def order(self) -> int:
        """The product of the orbit sizes: |G| once the chain is complete
        or meets the bound, and a lower bound on it before."""
        return math.prod(len(p) for p in self.pts)

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
        first, and back down to a level whenever it gains a generator, up
        to the bound.  False once the order provably passes the cap."""
        l = self.n - 1
        while l >= 0 and self.order() != self.bound:
            res = self._schreier(l)
            if res is None:
                l -= 1
                continue
            rows, top = res
            if not self.add(rows, top, l + 1):
                return False
            l = top
        return True

    def run(self, matrices: list[MatrixFq]) -> Optional[int]:
        """|G| for the group the matrices generate, or None once it
        provably passes the cap."""
        if self.start(matrices) and self.close():
            return self.order()
        return None


def group_closure_order(gens: OrthoGenSet,
                        cap: int = DEFAULT_CLOSURE_CAP) -> tuple[int, bool]:
    """Size of the group generated by the set, from a deterministic
    Schreier-Sims stabilizer chain with base e_0..e_{n-1} (see _Chain):
    the product of the basic orbit sizes.

    Returns (order, True), or (cap, False) exactly when the order exceeds
    the cap.  Every partial orbit lies inside its true basic orbit, so the
    product of the partial orbit sizes bounds |G| from below at every
    step.  The chain stops the moment that bound passes the cap, or meets
    the proven upper bound U: classical_orthogonal_order(n, q), halved for
    odd q and n >= 2 when every generator has square spinor norm.  When
    the bounds never meet (O(4,3) and O(4,5) generate subgroups of index
    3 and 75) the chain runs to completion.  A lower bound past U raises
    AssertionError, never returns.  Nothing but U is kept between calls.
    """
    order = _Chain(gens.ctx, gens.n, cap, gens._order_bound).run(
        gens.matrices())
    return (cap, False) if order is None else (order, True)


def _sp_order(m: int, q: int) -> int:
    """|Sp(2m, q)| = q^(m^2) prod_{i=1..m} (q^(2i) - 1)."""
    order = q ** (m * m)
    for i in range(1, m + 1):
        order *= q ** (2 * i) - 1
    return order


def classical_orthogonal_order(n: int, q: int) -> int:
    """The order of {A : A A^T = I} over GF(q), for every prime power q.

    Odd q: |O_n(q)|, which for even n = 2m has sign +1 exactly when
    (-1)^m is a square in GF(q), i.e. when m is even or q = 1 mod 4.
    Even q (MacWilliams, "Orthogonal matrices over finite fields", 1969):
    |Sp(n-1, q)| for odd n and q^(n-1) |Sp(n-2, q)| for even n.
    """
    if n < 1:
        raise DimensionTooSmall("n must be positive")
    m = n // 2
    if n % 2:
        return (1 if q % 2 == 0 else 2) * _sp_order(m, q)
    if q % 2 == 0:
        return q ** (n - 1) * _sp_order(m - 1, q)
    eps = 1 if (m % 2 == 0 or q % 4 == 1) else -1
    return 2 * q ** (m - 1) * (q ** m - eps) * _sp_order(m - 1, q)


def spinor_norm(M: MatrixFq) -> int:
    """The spinor norm of an orthogonal M over odd q, as a field element
    up to squares, by Zassenhaus's formula: with D = I - M and R row
    indices of a basis of D's row space, it is 2^|R| det(D[R, R]).  A
    reflection in v then has norm v.v, the convention under which the
    swap has norm 2."""
    ctx, n = M.ctx, M.r
    D = MatrixFq.from_rows(ctx, [[ctx.sub(int(i == j), M[i, j])
                                  for j in range(n)] for i in range(n)])
    _, R = D.T.rref()
    theta = D.take_rows(R).take_cols(R).det() if R else 1
    return ctx.mul(theta, ctx.power(2, len(R)))


def random_walk(gens: OrthoGenSet, walk_length: int, seed: int
                ) -> MatrixFq:
    """Random walk over the generated group: each step right-multiplies by
    a fresh uniform permutation or by one of the generators past the two
    fixed permutations.  Same seed, same matrix.  InvalidValue for a
    negative walk length.  The walk stays inside the generated group,
    which can be a proper subgroup of O (index 3 for O(4,3)), and is not
    uniform on it; it is kept to replay the "search" and "rows" records
    that name it, and new samples come from random_orthogonal.

    With rng = Random(seed), each step draws kind = rng.randrange(1 +
    len(extras)), extras = gens.matrices()[2:].  Kind 0 applies
    rng.shuffle(sigma) of sigma = [0..n-1], which moves column j to column
    sigma[j]; kind k right-multiplies by extras[k - 1].  The matrix is held
    as n column tuples, and a generator rewrites only the columns where it
    differs from the identity, each a combination of the old columns that
    its own column's nonzero entries name."""
    if walk_length < 0:
        raise InvalidValue(f"walk length {walk_length} is negative")
    ctx, n = gens.ctx, gens.n
    adds, muls = ctx.tables()
    units = _unit_rows(n)
    # per generator: (j, [(i, muls[M[i, j]]) for M[i, j] != 0]) per moved j
    extras = [[(j, [(i, muls[c]) for i, c in enumerate(col) if c])
               for j, col in enumerate(zip(*M.rows())) if col != units[j]]
              for M in gens.matrices()[2:]]
    rng = random.Random(seed)
    cols = list(units)
    for _ in range(walk_length):
        kind = rng.randrange(1 + len(extras))
        if not kind:
            sigma = list(range(n))
            rng.shuffle(sigma)
            moved = cols[:]
            for j, s in enumerate(sigma):
                moved[s] = cols[j]
            cols = moved
            continue
        old = cols[:]
        for j, terms in extras[kind - 1]:
            col = [0] * n
            for i, mc in terms:
                col = [adds[s][mc[x]] for s, x in zip(col, old[i])]
            cols[j] = tuple(col)
    return MatrixFq(ctx, n, n, [x for row in zip(*cols) for x in row])


# ---------------------------------------------------------------------------
# exactly uniform samples by the subgroup algorithm

def random_orthogonal(ctx: gf.FieldCtx, n: int, seed: int = 0,
                      min_weight: int = 0) -> Optional[MatrixFq]:
    """An exactly uniform sample of {A : A A^T = I} over GF(q), by the
    subgroup algorithm: A = diag(I_{n-1}, R(v_n)) ... diag(1, R(v_2))
    R(v_1), where v_i is uniform on the orbit of e_1 in the last
    n - i + 1 coordinates (_unit_draws, from one random.Random(seed)) and
    R(v) is a fixed isometry taking e_1 to v (_isometry), multiplied out
    row by row by _orthogonal_product.  Same seed, same matrix.  O(n^3)
    field operations through ctx.tables() and the field's _unit_tables,
    which compute their entries on lookup, so it works for every q.

    Row i of A needs only v_1..v_{i+1}, so the rows are built in order as
    the draws are made.  With min_weight > 0 the sample is None at the
    first row with fewer than min_weight nonzero entries, and the draws
    past that row are never made; otherwise it is the matrix the same
    seed gives without the gate."""
    if n < 1:
        raise DimensionTooSmall("n must be positive")
    return _orthogonal_product(ctx, _unit_draws(ctx, n, random.Random(seed)),
                               min_weight)


_BLOCK = 32                     # Mersenne Twister words per getrandbits call
_UNPACK = struct.Struct(f"<{_BLOCK}I").unpack


def _words(rng: random.Random) -> Iterator[int]:
    """rng's 32-bit Mersenne Twister outputs, in the order its own calls
    would consume them: getrandbits(32 B) holds B consecutive outputs, the
    first in the low 32 bits.  Drawn B at a time and never exhausted."""
    def block() -> tuple[int, ...]:
        return _UNPACK(rng.getrandbits(32 * _BLOCK).to_bytes(4 * _BLOCK,
                                                             "little"))
    return itertools.chain.from_iterable(iter(block, None))


def _uniform_codes(rng: random.Random, q: int) -> Iterator[int]:
    """The values of repeated rng.randrange(q) calls, as one stream.
    CPython draws randrange(q) as _randbelow(q): w >> (32 -
    q.bit_length()) for the next 32-bit word w, drawn again while it is
    >= q.  Every draw shares q, so the stream is the shifted words of
    _words(rng) less those >= q.  Above 32 bits a draw reads more than one
    word, and randrange itself is called."""
    shift = 32 - q.bit_length()
    if shift < 0:
        return iter(functools.partial(rng.randrange, q), None)
    return filter(q.__gt__, map(operator.rshift, _words(rng),
                                itertools.repeat(shift)))


@functools.lru_cache(maxsize=None)
def _unit_tables(ctx: gf.FieldCtx) -> tuple[dict, dict]:
    """(squares, scales) for the draws over one field, shared by all its
    samples: squares[c] = c^2, and scales[s] the muls row of 1 /
    sqrt_min(s), or None when s is 0 or a non-square.  An entry is
    computed on its first lookup and kept, so a sample calls sqrt_min and
    inv only for a sum that no earlier sample over the field has met."""
    muls = ctx.tables()[1]

    class Squares(dict):
        def __missing__(self, c: int) -> int:
            square = self[c] = muls[c][c]
            return square

    class Scales(dict):
        def __missing__(self, s: int):
            r = ctx.sqrt_min(s) if s else None
            row = self[s] = None if r is None else muls[ctx.inv(r)]
            return row

    return Squares(), Scales()


def _unit_draws(ctx: gf.FieldCtx, n: int, rng: random.Random
                ) -> Iterator[tuple[int, ...]]:
    """v_1, ..., v_n, drawn lazily, with v_i uniform on the orbit of e_1
    in GF(q)^(n-i+1) under its orthogonal matrices: every unit vector (x.x
    = 1) for odd q, by Witt's theorem; for even q every unit vector but
    the all-ones vector when the length is odd and past 1, since every
    orthogonal matrix over even q fixes the all-ones vector.

    A draw x has uniform entries (the next values of _uniform_codes, one
    rng.randrange(q) each) and s = x.x.  It is kept when s is a nonzero
    square (every nonzero s for even q) and scaled by 1 / sqrt_min(s).  A
    unit vector u then comes from exactly q - 1 draws, c u with
    sqrt_min(c^2) = c and c (-u) with sqrt_min(c^2) = -c, so the kept
    draws are uniform on the unit vectors; the all-ones vector, where it
    lies outside the orbit, is drawn again.  The squares and the scales
    are read from _unit_tables."""
    adds = ctx.tables()[0]
    squares, scales = _unit_tables(ctx)
    even = ctx.p == 2
    codes = _uniform_codes(rng, ctx.q)
    for m in range(n, 0, -1):
        ones = (1,) * m if even and m % 2 and m > 1 else None
        while True:
            x = list(itertools.islice(codes, m))
            s = 0
            for c in x:
                s = adds[s][squares[c]]
            scale = scales[s]
            if scale is None:
                continue
            v = tuple([scale[c] for c in x])
            if v != ones:
                yield v
                break


# x -> x + (x.w) u, held as the muls rows of the entries of w and of u
_Steps = list[tuple[list, list]]


def _isometry(ctx: gf.FieldCtx) -> Callable[[tuple[int, ...]], _Steps]:
    """v -> R(v), a fixed orthogonal map of GF(q)^m with e_1 R(v) = v for
    a unit vector v in the orbit of e_1, as steps (w, u), each x -> x +
    (x.w) u with u = -c w, applied in order:
      * v_1 != 1: w = e_1 - v and c = 1 / (1 - v_1).  For odd q this is
        the reflection in w, since w.w = 2 (1 - v_1); for even q, where
        w.w = 0, it is the orthogonal transvection;
      * v_1 = 1, odd q: the reflection in e_1 + v (c = 1/2, as (e_1 + v).
        (e_1 + v) = 4) takes e_1 to -v, and the reflection in v (c = 2)
        takes -v to v;
      * v_1 = 1, even q: the swap of coordinates 1 and j, for the first j
        with v_j != 1 (the transvection in e_1 + e_j with c = 1), takes
        e_1 to e_j, and the transvection in e_j + v with c = 1 / (1 + v_j)
        takes e_j to v.  Such a j exists: the all-ones vector is not in
        the orbit, and for length 1 v = e_1;
    and no step at all for v = e_1.  The tables are read once, here."""
    adds, muls = ctx.tables()
    minus = muls[ctx.neg(1)]
    inv, odd = ctx.inv, ctx.p != 2

    def step(w: list[int], c: int) -> tuple[list, list]:
        mc = muls[minus[c]]
        return [muls[x] for x in w], [muls[mc[x]] for x in w]

    def steps(v: tuple[int, ...]) -> _Steps:
        if v[0] != 1:
            w = [minus[c] for c in v]
            w[0] = adds[1][w[0]]                            # e_1 - v
            return [step(w, inv(w[0]))]
        if not any(v[1:]):
            return []
        w = list(v)
        if odd:
            w[0] = adds[1][1]                               # e_1 + v
            return [step(w, inv(2)), step(list(v), 2)]
        j = next(k for k, c in enumerate(v) if c != 1)
        swap = [0] * len(v)
        swap[0] = swap[j] = 1                               # e_1 + e_j
        w[j] = adds[1][w[j]]                                # e_j + v
        return [step(swap, 1), step(w, inv(w[j]))]

    return steps


def _orthogonal_product(ctx: gf.FieldCtx,
                        draws: Iterable[tuple[int, ...]],
                        min_weight: int = 0) -> Optional[MatrixFq]:
    """diag(I_{n-1}, R(v_n)) ... diag(1, R(v_2)) R(v_1) for draws v_1..v_n
    of lengths n..1 (see _isometry), a pure function of the draws, or None
    at the first row with fewer than min_weight nonzero entries.  The
    factors past diag(I_i, R(v_{i+1})) fix e_i, so row i is (0^i, v_{i+1})
    right-multiplied by diag(I_{i-1}, R(v_i)), ..., R(v_1), and the level
    diag(I_j, R(v_{j+1})) changes coordinates j..n-1 only.  So row i starts
    as v_{i+1} and meets the levels newest first, j = i-1 down to 0: each
    prepends one zero, which makes the row span coordinates j..n-1, and
    applies its steps to the whole row.  Row i is built once v_{i+1} is
    read, before the next draw is asked for; the last draw, of length 1,
    gets no steps, since no row meets its level.

    Over the orbits of _unit_draws this is a bijection onto {A : A A^T =
    I}: row 1 of the product is v_1, and A R(v_1)^-1 = diag(1, A') with
    A' the product of v_2..v_n.  Uniform draws give a uniform A."""
    adds = ctx.tables()[0]
    isometry = _isometry(ctx)
    flat: list[int] = []
    levels: list[_Steps] = []
    for v in draws:
        row = list(v)
        for steps in reversed(levels):
            row.insert(0, 0)
            for w, u in steps:
                t = 0
                for a, mw in zip(row, w):
                    t = adds[t][mw[a]]
                if t:
                    row = [adds[a][mu[t]] for a, mu in zip(row, u)]
        if len(row) - row.count(0) < min_weight:
            return None
        flat += row
        if len(v) > 1:
            levels.append(isometry(v))
    n = math.isqrt(len(flat))
    return MatrixFq(ctx, n, n, flat)
