"""Exact arithmetic in GF(p^m), including extensions over an explicit base
field, trace maps, and small solvers for distinguished elements.

Elements are plain Python ints in [0, q) everywhere in the package: there
is no element wrapper, and every function takes and returns these codes.
For a context built over a base field of order b, the base-b digits of the
code (little-endian) are the coefficients of the element's polynomial
representation over that base; for a prime field the code is the residue
itself.  0 and 1 are always the additive and multiplicative identities.
Contexts are immutable and safe to share between threads; every table is
built once at construction or on first use.

Each context carries a fixed multiplicative generator g (the smallest code
of order q - 1) plus exp/log tables for fields of desk scale, so products,
inverses, and square roots cost one or two list lookups.

The hot loops elsewhere in the package do their arithmetic through
``FieldCtx.tables()``, one interface for every q: adds[a][b] and
muls[a][b].  Up to _TABLE_MAX elements these are q x q lists of rows;
above it each row is computed on access through add and mul.

The module also holds the package's one Gaussian-elimination kernel
(_rref_rows, _nullspace_rows, _det_rows), which MatrixFq wraps.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    DivisionByZero,
    InvalidValue,
    NotADivisor,
    NotATower,
    NotPrime,
    ParseError,
    ReducibleModulus,
    SearchBudgetExceeded,
)

_EXPLOG_MAX = 1 << 20    # cap on exp/log table size (O(q) ints each)
_TABLE_MAX = 1 << 10     # tables() are q x q lists up to here, computed above
_EXHAUSTIVE_MAX = 1 << 16  # self-dual basis falls back to complete search below this


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over a base context
#
# Polynomials are little-endian lists of base-field codes with no trailing
# zeros.  Only construction-time work (irreducibility, default modulus
# search) runs through these; element arithmetic uses tables afterwards.

def _pstrip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(base: "FieldCtx", a: list[int], f: Sequence[int]) -> list[int]:
    a = list(a)
    df = len(f) - 1
    lead_inv = base.inv(f[-1])
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        coef = base.mul(a[-1], lead_inv)
        shift = len(a) - 1 - df
        for j in range(df + 1):
            a[shift + j] = base.sub(a[shift + j], base.mul(coef, f[j]))
        _pstrip(a)
    return a


def _pmulmod(base: "FieldCtx", a: Sequence[int], b: Sequence[int],
             f: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
    return _pmod(base, _pstrip(prod), f)


def _ppowmod(base: "FieldCtx", a: Sequence[int], e: int,
             f: Sequence[int]) -> list[int]:
    result = [1]
    sq = _pmod(base, list(a), f)
    while e:
        if e & 1:
            result = _pmulmod(base, result, sq, f)
        sq = _pmulmod(base, sq, sq, f)
        e >>= 1
    return result


def _pgcd(base: "FieldCtx", a: Sequence[int], b: Sequence[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(base, a, b)
    return a


def _poly_irreducible(base: "FieldCtx", f: Sequence[int]) -> bool:
    """Deterministic irreducibility test for monic f over the base field:
    x^(q^d) = x mod f, and gcd(x^(q^(d/r)) - x, f) = 1 for prime r | d."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = [0, 1]
    h = x
    for _ in range(d):
        h = _ppowmod(base, h, base.q, f)
    if h != x:
        return False
    for r in prime_factors(d):
        g = x
        for _ in range(d // r):
            g = _ppowmod(base, g, base.q, f)
        diff = list(g) + [0] * (2 - len(g))
        diff[1] = base.sub(diff[1], 1)
        if len(_pgcd(base, f, _pstrip(diff))) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# tables() above _TABLE_MAX: rows that compute their entries on access.
# Neither class is iterable, since its indices have no end.

class _ComputedRow:
    __slots__ = ("_op", "_a")
    __iter__ = None

    def __init__(self, op, a: int):
        self._op, self._a = op, a

    def __getitem__(self, b: int) -> int:
        return self._op(self._a, b)


class _ComputedTable:
    __slots__ = ("_op",)
    __iter__ = None

    def __init__(self, op):
        self._op = op

    def __getitem__(self, a: int) -> _ComputedRow:
        return _ComputedRow(self._op, a)


# ---------------------------------------------------------------------------
# field contexts

class FieldCtx:
    """Immutable description of GF(q) together with its arithmetic.

    Built either directly over the prime field (``field_create``) or over a
    declared base context (``tower_create``); a context built this second
    way keeps ``base`` pointing at the field its modulus lives over, which
    is what trace maps and subfield projections operate against.
    """

    __slots__ = ("p", "m", "q", "base", "degree", "modulus", "g",
                 "exp", "log", "_tables", "_key", "_hash")

    def __init__(self, p: int, base: Optional["FieldCtx"], degree: int,
                 modulus: Optional[Sequence[int]]):
        # internal; use field_create / tower_create / parse_field
        if base is None:
            if not is_prime(p):
                raise NotPrime(f"{p} is not prime")
            self.p, self.m, self.q = p, 1, p
            self.base, self.degree = None, 1
            self.modulus = (0, 1)
        else:
            if degree < 2:
                raise InvalidValue("extension degree must be at least 2")
            self.p, self.base, self.degree = base.p, base, degree
            self.m = base.m * degree
            self.q = base.q ** degree
            if modulus is None:
                self.modulus = self._default_modulus()
            else:
                mod = tuple(int(c) for c in modulus)
                if len(mod) != degree + 1 or mod[-1] != 1:
                    raise ReducibleModulus(
                        f"modulus must be monic of degree {degree}")
                if any(not 0 <= c < base.q for c in mod):
                    raise ReducibleModulus("modulus coefficients out of range")
                if not _poly_irreducible(base, mod):
                    raise ReducibleModulus(
                        "modulus factors over the base field")
                self.modulus = mod
        self._key = (self.p, self.degree, self.modulus,
                     self.base._key if self.base else None)
        self._hash = hash(self._key)
        self.g = self._find_generator()
        self.exp, self.log = self._build_explog()
        self._tables = None

    # -- construction helpers -------------------------------------------

    def _default_modulus(self) -> tuple[int, ...]:
        """Smallest monic irreducible of the required degree: candidates are
        ordered by the integer whose base-q digits are the low coefficients."""
        base, d = self.base, self.degree
        for t in range(base.q ** d):
            low, rest = [], t
            for _ in range(d):
                rest, c = divmod(rest, base.q)
                low.append(c)
            f = tuple(low) + (1,)
            if _poly_irreducible(base, f):
                return f
        raise AssertionError("no irreducible polynomial found")

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        fac = prime_factors(self.q - 1)
        for c in range(2, self.q):
            if all(self._raw_pow(c, (self.q - 1) // r) != 1 for r in fac):
                return c
        raise AssertionError("no multiplicative generator found")

    def _build_explog(self):
        if self.q > _EXPLOG_MAX:
            return None, None
        n = self.q - 1
        exp = [0] * (2 * n if n else 1)
        log = [-1] * self.q
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._raw_mul(v, self.g)
        assert v == 1, "generator order is not q - 1"
        for i in range(n, 2 * n):
            exp[i] = exp[i - n]
        return exp, log

    # -- raw arithmetic on codes -----------------------------------------

    def _digits(self, a: int) -> list[int]:
        qb, out = self.base.q, []
        for _ in range(self.degree):
            a, c = divmod(a, qb)
            out.append(c)
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product; used to bootstrap exp/log."""
        if self.base is None:
            return (a * b) % self.p
        if self.base.q == 2:
            # digits are bits: carry-less product with modulus reduction
            mmask = 0
            for i, c in enumerate(self.modulus):
                if c:
                    mmask |= 1 << i
            top = 1 << self.degree
            r, x = 0, a
            while b:
                if b & 1:
                    r ^= x
                b >>= 1
                x <<= 1
                if x & top:
                    x ^= mmask
            return r
        base, qb = self.base, self.base.q
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.degree - 1)
        for i, ai in enumerate(da):
            if ai == 0:
                continue
            for j, bj in enumerate(db):
                if bj:
                    prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
        for idx in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[idx]
            if c:
                prod[idx] = 0
                for j in range(self.degree):
                    mj = self.modulus[j]
                    if mj:
                        prod[idx - self.degree + j] = base.sub(
                            prod[idx - self.degree + j], base.mul(c, mj))
        out, mult = 0, 1
        for t in range(self.degree):
            out += prod[t] * mult
            mult *= qb
        return out

    def _raw_pow(self, a: int, e: int) -> int:
        r, sq = 1, a
        while e:
            if e & 1:
                r = self._raw_mul(r, sq)
            sq = self._raw_mul(sq, sq)
            e >>= 1
        return r

    # -- public arithmetic on codes ---------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.base is None:
            return (a + b) % self.p
        qb, out, mult = self.base.q, 0, 1
        while a or b:
            a, ca = divmod(a, qb)
            b, cb = divmod(b, qb)
            out += self.base.add(ca, cb) * mult
            mult *= qb
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.base is None:
            return (-a) % self.p
        qb, out, mult = self.base.q, 0, 1
        while a:
            a, c = divmod(a, qb)
            out += self.base.neg(c) * mult
            mult *= qb
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.exp is not None:
            return self.exp[self.log[a] + self.log[b]]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.exp is not None:
            return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]
        return self._raw_pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self.exp is not None:
            return self.exp[(self.log[a] * e) % (self.q - 1)]
        return self._raw_pow(a, e)

    def tables(self) -> tuple[Sequence[Sequence[int]],
                              Sequence[Sequence[int]]]:
        """(adds, muls) with adds[a][b] = add(a, b) and muls[a][b] =
        mul(a, b).  Up to _TABLE_MAX elements they are q x q lists of
        lists, built on the first call; above it their rows are computed
        on access.  Either way the pair is kept on the context."""
        if self._tables is None:
            if self.q <= _TABLE_MAX:
                r = range(self.q)
                self._tables = ([[self.add(a, b) for b in r] for a in r],
                                [[self.mul(a, b) for b in r] for a in r])
            else:
                self._tables = (_ComputedTable(self.add),
                                _ComputedTable(self.mul))
        return self._tables

    # -- squares, roots of unity ------------------------------------------

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        if self.log is not None:
            return self.log[a] % 2 == 0
        return self.power(a, (self.q - 1) // 2) == 1

    def sqrt_min(self, a: int) -> Optional[int]:
        """Smallest code r with r*r = a, or None when a is a non-square."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.power(a, self.q // 2)
        if self.log is not None:
            l = self.log[a]
            if l % 2:
                return None
            r = self.exp[l // 2]
            return min(r, self.neg(r))
        best = None  # slow path, only reachable above the exp/log cap
        for r in range(1, self.q):
            if self.mul(r, r) == a:
                best = r
                break
        return best

    def primitive_nth_root(self, n: int) -> int:
        if n < 1 or (self.q - 1) % n != 0:
            raise NotADivisor(f"{n} does not divide q - 1 = {self.q - 1}")
        return self.power(self.g, (self.q - 1) // n)

    # -- distinguished pairs ------------------------------------------------

    def unit_circle_pair(self) -> Optional[tuple[int, int]]:
        """First (a, b) in lexicographic code order with a, b nonzero and
        a^2 + b^2 = 1, or None when no such pair exists."""
        for a in range(1, self.q):
            t = self.sub(1, self.mul(a, a))
            if t == 0:
                continue
            r = self.sqrt_min(t)
            if r is not None:
                return a, r
        return None

    def isotropic_pair(self) -> Optional[tuple[int, int]]:
        """First (a, b) in lexicographic code order with a, b nonzero and
        a^2 + b^2 = 0; None exactly when -1 is a non-square (so never for
        characteristic 2, where (1, 1) works)."""
        for a in range(1, self.q):
            t = self.neg(self.mul(a, a))
            r = self.sqrt_min(t)
            if r is not None and r != 0:
                return a, r
        return None

    # -- trace and subfield structure --------------------------------------

    def trace_code(self, a: int) -> int:
        """Trace down to the immediate base field, as a base-field code."""
        if self.base is None:
            raise NotATower("prime field has no base to trace into")
        qb = self.base.q
        acc, y = a, a
        for _ in range(self.degree - 1):
            y = self.power(y, qb)
            acc = self.add(acc, y)
        assert acc < qb, "trace left the embedded base field"
        return acc

    def embed(self, a: int) -> int:
        """Code of a base-field element inside this extension (identity on
        codes by construction)."""
        if self.base is None:
            raise NotATower("prime field has no base")
        if not 0 <= a < self.base.q:
            raise InvalidValue("code outside the base field")
        return a

    def self_dual_basis(self, seed: int = 1, retries: int = 64,
                        exhaustive: bool = True) -> Optional[list[int]]:
        """Basis e_0..e_{l-1} over the base with Tr(e_i e_j) = delta_ij.

        Randomized greedy orthonormalization under a fixed seed, with a
        complete depth-first fallback when q <= 2^16.  Returns None exactly
        when no such basis exists (odd base order with the trace form's
        power-basis determinant a non-square).
        """
        if self.base is None:
            raise NotATower("prime field has no base")
        base, ell, qb = self.base, self.degree, self.base.q

        x_elem = qb  # the polynomial x
        powers = [self.power(x_elem, t) for t in range(ell)]

        def form(u: int, v: int) -> int:
            return self.trace_code(self.mul(u, v))

        gram_pow = [[form(powers[t], powers[s]) for s in range(ell)]
                    for t in range(ell)]
        det = _det_rows(base, gram_pow)
        assert det != 0, "trace form must be non-degenerate"
        if qb % 2 == 1 and not base.is_square(det):
            return None

        def combine(coeffs: Sequence[int], elems: Sequence[int]) -> int:
            # base codes embed as themselves, so this is sum c_i e_i
            out = 0
            for c, e in zip(coeffs, elems):
                if c:
                    out = self.add(out, self.mul(c, e))
            return out

        def complement(chosen: list[int]) -> list[int]:
            """The elements orthogonal to every chosen one, as a basis."""
            rows = [[form(powers[t], e) for t in range(ell)] for e in chosen]
            return [combine(vec, powers)
                    for vec in _nullspace_rows(base, rows, ell)]

        def finish(chosen: list[int]) -> list[int]:
            for i, u in enumerate(chosen):
                for j, v in enumerate(chosen):
                    assert form(u, v) == (1 if i == j else 0)
            return chosen

        rng = random.Random(seed)
        for _ in range(retries):
            chosen: list[int] = []
            while len(chosen) < ell:
                null = complement(chosen)
                found = None
                for _try in range(96):
                    coeffs = [rng.randrange(qb) for _ in null]
                    if not any(coeffs):
                        continue
                    cand = combine(coeffs, null)
                    if form(cand, cand) == 1:
                        found = cand
                        break
                if found is None:
                    break
                chosen.append(found)
            if len(chosen) == ell:
                return finish(chosen)

        if not exhaustive or self.q > _EXHAUSTIVE_MAX:
            raise SearchBudgetExceeded(
                "randomized self-dual basis search failed and exhaustive "
                "fallback is unavailable")

        def dfs(chosen: list[int]) -> Optional[list[int]]:
            if len(chosen) == ell:
                return chosen
            null = complement(chosen)
            for t in range(1, qb ** len(null)):
                coeffs, rest = [], t
                for _ in range(len(null)):
                    rest, c = divmod(rest, qb)
                    coeffs.append(c)
                cand = combine(coeffs, null)
                if form(cand, cand) == 1:
                    res = dfs(chosen + [cand])
                    if res is not None:
                        return res
            return None

        found = dfs([])
        return finish(found) if found is not None else None

    @property
    def descriptor(self) -> str:
        if self.base is None:
            return str(self.p)
        if self.base.base is None:
            return f"{self.p}^{self.m}"
        return f"{self.base.q}^{self.degree}/{self.base.descriptor}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GF({self.descriptor})"


# ---------------------------------------------------------------------------
# Gaussian elimination on lists of rows: the one kernel behind
# MatrixFq.rref/det/nullspace and the self-dual basis solver.  Each routine
# rewrites the rows it is given and pivots on the first nonzero entry of
# the column, which makes the reduced form canonical.

def _rref_rows(ctx: FieldCtx, rows: list[list[int]]) -> list[int]:
    """Reduce rows in place to reduced row echelon form and return the
    pivot columns; the rows past the last pivot end up zero."""
    inv, mul, sub = ctx.inv, ctx.mul, ctx.sub
    ncols = len(rows[0]) if rows else 0
    pivots, r = [], 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        s = inv(rows[r][col])
        if s != 1:
            rows[r] = [mul(s, v) for v in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def _nullspace_rows(ctx: FieldCtx, rows: list[list[int]],
                    ncols: int) -> list[list[int]]:
    """Vectors x with row . x = 0 for every row: one per free column of the
    reduced rows, in column order, with a 1 there."""
    pivots = _rref_rows(ctx, rows)
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(rows, pivots):
            vec[p] = ctx.neg(row[f])
        out.append(vec)
    return out


def _det_rows(ctx: FieldCtx, rows: list[list[int]]) -> int:
    """Determinant of a square list of rows, by forward elimination."""
    inv, mul, sub = ctx.inv, ctx.mul, ctx.sub
    n = len(rows)
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = ctx.neg(det)
        det = mul(det, rows[col][col])
        s = inv(rows[col][col])
        prow = rows[col]
        for i in range(col + 1, n):
            if rows[i][col]:
                f = mul(rows[i][col], s)
                rows[i] = [sub(a, mul(f, b)) for a, b in zip(rows[i], prow)]
    return det


# ---------------------------------------------------------------------------
# public constructors

@lru_cache(maxsize=None)
def _prime_field(p: int) -> FieldCtx:
    return FieldCtx(p, None, 1, None)


def field_create(p: int, m: int = 1,
                 modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """GF(p^m).  For m >= 2 the field is an extension of GF(p) by the given
    monic irreducible modulus (little-endian coefficient codes), defaulting
    to the smallest irreducible of that degree."""
    if m < 1:
        raise InvalidValue("extension degree must be positive")
    if m == 1:
        if modulus is not None and tuple(modulus) != (0, 1):
            raise ReducibleModulus("prime field modulus is fixed to x")
        return _prime_field(p)
    return FieldCtx(p, _prime_field(p), m, modulus)


def tower_create(base: FieldCtx, ell: int,
                 modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """GF(q^ell) built over the declared base context of order q."""
    if ell < 2:
        raise InvalidValue("tower degree must be at least 2")
    return FieldCtx(base.p, base, ell, modulus)


@lru_cache(maxsize=None)
def parse_field(text: str) -> FieldCtx:
    """Parse a field descriptor: "p", "p^m", a prime-power order like "27",
    or a tower "q^l/<base>" (also accepted as "<order>/<base>")."""
    t = text.strip()
    if not t:
        raise ParseError("empty field descriptor")
    if "/" in t:
        left, right = t.split("/", 1)
        base = parse_field(right)
        if "^" in left:
            b_txt, l_txt = left.split("^", 1)
            try:
                b, ell = int(b_txt), int(l_txt)
            except ValueError:
                raise ParseError(f"bad tower descriptor {text!r}") from None
            if b != base.q:
                raise ParseError(
                    f"tower base order {b} does not match {base.q}")
        else:
            try:
                total = int(left)
            except ValueError:
                raise ParseError(f"bad tower descriptor {text!r}") from None
            ell, acc = 0, 1
            while acc < total:
                acc *= base.q
                ell += 1
            if acc != total:
                raise ParseError(
                    f"{total} is not a power of the base order {base.q}")
        return tower_create(base, ell)
    if "^" in t:
        p_txt, m_txt = t.split("^", 1)
        try:
            p, m = int(p_txt), int(m_txt)
        except ValueError:
            raise ParseError(f"bad field descriptor {text!r}") from None
        return field_create(p, m)
    try:
        v = int(t)
    except ValueError:
        raise ParseError(f"bad field descriptor {text!r}") from None
    if v < 2:
        raise ParseError(f"field order must be at least 2, got {v}")
    p = prime_factors(v)[0]
    m = 0
    acc = 1
    while acc < v:
        acc *= p
        m += 1
    if acc != v:
        raise ParseError(f"{v} is not a prime power")
    return field_create(p, m)
