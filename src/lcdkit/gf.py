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
of order q - 1; found on first use above the exp/log cap) plus exp/log
tables for fields of desk scale, so products, inverses, and square roots
cost one or two list lookups.  Primality is a deterministic Miller-Rabin
test, proven for every value below about 3.3e24 and refusing larger ones;
q - 1 is factored by Pollard-Brent rho to find g.  A field order q must be
below the square of that bound (_Q_LIMIT), checked before any work.

The hot loops, here and elsewhere in the package, do their arithmetic
through ``FieldCtx.tables()``, one interface for every q: adds[a][b] and
muls[a][b].  Up to _TABLE_MAX elements these are q x q lists of rows,
built from the base-p digits (adds) and from exp/log (muls); above it
each row is computed on access through add and mul.

The module also holds the package's one elimination loop, _rref_rows,
which returns the determinant along with the pivots; _nullspace_rows reads
its reduced rows, and MatrixFq wraps both.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import lru_cache
from typing import Iterator, Optional, Sequence

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
_SELF_DUAL_SEED = 1      # rng seed of the randomized self-dual basis search
_SELF_DUAL_RETRIES = 64  # its attempts before the complete fallback


# the first 13 primes decide every n below _MR_LIMIT by Miller-Rabin
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# every field order is below this, which keeps GF(p^2) for each prime p
# that is_prime proves; a larger one is refused before any work
_Q_LIMIT = _MR_LIMIT ** 2


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over _MR_BASES; InvalidValue from
    _MR_LIMIT (about 3.3e24) up, where those bases prove nothing."""
    if n >= _MR_LIMIT:
        raise InvalidValue(f"{n} is too large to prove prime")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    return _strong_probable_prime(n)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in _MR_BASES, for n prime to them all:
    False proves n composite, and True proves it prime below _MR_LIMIT."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(v: int, m: int) -> int:
    """floor(v^(1/m)) for v >= 1, by Newton's method from a float estimate
    just above it."""
    e = math.log2(v) / m
    r = int(2 ** e * (1 + 2 ** -30)) + 1 if e < 1000 else 1 << math.ceil(e)
    while True:
        s = ((m - 1) * r + v // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _rho(n: int) -> int:
    """A proper factor of the composite n, which is odd: Pollard's rho on
    x -> x^2 + c in Brent's variant (Brent, BIT 20, 1980), which doubles
    the cycle search's stride and takes gcds over batches of 64 steps.
    It tries c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += 64
            r *= 2
        if g == n:                      # the batch overshot: step it singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending.  Trial division takes the
    primes below 256; Pollard-Brent rho splits what is left until every
    part is prime: below 2^16 it has no factor below 256, above that
    Miller-Rabin proves it.  InvalidValue for a part from _MR_LIMIT up
    that no base proves composite."""
    out, f = [], 2
    while f < 256 and f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m >> 16 and not _strong_probable_prime(m):
            f = _rho(m)
            parts += [f, m // f]
        elif m < _MR_LIMIT:
            out.append(m)
        else:
            raise InvalidValue(f"{m} is too large to prove prime")
    return sorted(set(out))


# ---------------------------------------------------------------------------
# polynomial helpers over a base context
#
# Polynomials are little-endian lists of base-field codes with no trailing
# zeros, and their coefficients are added and multiplied by reading the
# base field's tables() rows.  Construction-time work (irreducibility,
# default modulus search, the products that find the generator) runs
# through these, and so do products above the exp/log cap; below it element
# arithmetic uses tables afterwards.

def _pstrip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(base: "FieldCtx", a: list[int], f: Sequence[int]) -> list[int]:
    """a mod f.  Each step adds coef * (-f), with -f negated once here, by
    reading the base field's tables() rows."""
    adds, muls = base.tables()
    a = list(a)
    df = len(f) - 1
    by_lead_inv = muls[base.inv(f[-1])]
    minus_f = [(j, base.neg(c)) for j, c in enumerate(f) if c]
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        mc = muls[by_lead_inv[a[-1]]]
        shift = len(a) - 1 - df
        for j, c in minus_f:
            a[shift + j] = adds[a[shift + j]][mc[c]]
        _pstrip(a)
    return a


def _pmulmod(base: "FieldCtx", a: Sequence[int], b: Sequence[int],
             f: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    adds, muls = base.tables()
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        mi = muls[ai]
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = adds[prod[i + j]][mi[bj]]
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
    """Ben-Or's exact test for monic f of degree d over the base field:
    gcd(x^(q^i) - x, f) = 1 for i = 1..d/2, since a reducible f has an
    irreducible factor of some degree i <= d/2, which divides x^(q^i) - x."""
    d = len(f) - 1
    h = [0, 1]
    for _ in range(d // 2):
        h = _ppowmod(base, h, base.q, f)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = base.sub(diff[1], 1)
        if len(_pgcd(base, f, _pstrip(diff))) != 1:
            return False
    return d >= 1


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
            # base.q >= 2, so a degree of the cap's bit length passes it,
            # and q is formed only for smaller degrees
            if (degree >= _Q_LIMIT.bit_length()
                    or base.q ** degree >= _Q_LIMIT):
                raise InvalidValue(f"GF({base.q}^{degree}) is too large: "
                                   f"q must be below {_Q_LIMIT:.3g}")
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
        # above the exp/log cap the generator is found on first use: it
        # factors q - 1, which can take far longer than the field
        self.g = self._find_generator() if self.q <= _EXPLOG_MAX else None
        self.exp, self.log = self._build_explog()
        self._tables = None

    # -- construction helpers -------------------------------------------

    def _default_modulus(self) -> tuple[int, ...]:
        """Smallest monic irreducible of the required degree: candidates are
        ordered by the integer whose base-q digits are the low coefficients.
        The first q are the binomials x^d + c.  None of them is irreducible
        when a prime factor of d does not divide q - 1, or when 4 | d and
        q = 3 mod 4 (Lidl and Niederreiter, Finite Fields, Thm 3.75), and
        the scan then starts past them."""
        base, d = self.base, self.degree
        q = base.q
        no_binomial = (any((q - 1) % r for r in prime_factors(d))
                       or (d % 4 == 0 and q % 4 == 3))
        for t in range(q if no_binomial else 0, q ** d):
            low, rest = [], t
            for _ in range(d):
                rest, c = divmod(rest, q)
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
        powers = self._powers_of_g()
        for i in range(n):
            v = exp[i] = next(powers)
            log[v] = i
        assert next(powers) == 1, "generator order is not q - 1"
        exp[n:] = exp[:n]
        return exp, log

    def _powers_of_g(self) -> Iterator[int]:
        """1, g, g^2, ... as codes.  g has low degree over the base, so each
        power is the last one times g's few nonzero coefficients, shifted,
        then one reduction of the coefficients past the modulus degree."""
        g, v = self.g, 1
        if self.base is None:
            while True:
                yield v
                v = v * g % self.p
        d = self.degree
        if self.base.q == 2:
            # digits are bits: carry-less shifts, the modulus as a bit mask
            shifts = [j for j in range(g.bit_length()) if g >> j & 1]
            tops = range(g.bit_length() + d - 2, d - 1, -1)
            mmask = sum(1 << i for i, c in enumerate(self.modulus) if c)
            while True:
                yield v
                r = 0
                for j in shifts:
                    r ^= v << j
                for t in tops:
                    if r >> t & 1:
                        r ^= mmask << (t - d)
                v = r
        adds, muls = self.base.tables()
        gd = _pstrip(self._digits(g))
        terms = [(j, muls[c]) for j, c in enumerate(gd) if c]
        tops = range(len(gd) + d - 2, d - 1, -1)
        low = [(i, c) for i, c in enumerate(self.modulus[:d]) if c]
        weights = [self.base.q ** i for i in range(d)]
        digits = [1] + [0] * (d - 1)
        while True:
            yield sum(map(operator.mul, digits, weights))
            prod = [0] * (d + len(gd) - 1)
            for j, mg in terms:
                for i, x in enumerate(digits, j):
                    if x:
                        prod[i] = adds[prod[i]][mg[x]]
            for t in tops:
                if prod[t]:
                    # subtract prod[t] x^(t - d) times the monic modulus
                    mc, s = muls[self.base.neg(prod[t])], t - d
                    for i, c in low:
                        prod[s + i] = adds[prod[s + i]][mc[c]]
            digits = prod[:d]

    # -- raw arithmetic on codes -----------------------------------------

    def _digits(self, a: int) -> list[int]:
        qb, out = self.base.q, []
        for _ in range(self.degree):
            a, c = divmod(a, qb)
            out.append(c)
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product: for the generator search, and for fields
        above the exp/log cap."""
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
        out = 0
        for c in reversed(_pmulmod(self.base, self._digits(a),
                                   self._digits(b), self.modulus)):
            out = out * self.base.q + c
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
        lists, built on the first call without a per-entry add or mul;
        above it their rows are computed on access.  Either way the pair
        is kept on the context."""
        if self._tables is None:
            if self.q <= _TABLE_MAX:
                self._tables = (self._add_rows(), self._mul_rows())
            else:
                self._tables = (_ComputedTable(self.add),
                                _ComputedTable(self.mul))
        return self._tables

    def _add_rows(self) -> list[list[int]]:
        """The adds table from the digits.  At every tower level a code is
        a string of base-p digits that add digit by digit mod p, so the
        table for the low j + 1 digits follows from the one for the low j:
        a row with top digit 0 repeats the low row once per top digit s,
        shifted by s blocks, and a top digit t rotates that row t blocks."""
        p, size, rows = self.p, 1, [[0]]
        for _ in range(self.m):
            full = [row + [v + size * s for s in range(1, p) for v in row]
                    for row in rows]
            rows = [row[t * size:] + row[:t * size]
                    for t in range(p) for row in full]
            size *= p
        return rows

    def _mul_rows(self) -> list[list[int]]:
        """The muls table from exp/log: mul(a, b) = exp[log a + log b], so
        row a is the exp slice from log a, read in the order of log b."""
        exp, n = self.exp, self.q - 1
        logs = self.log[1:]
        return [[0] * self.q] + [[0, *map(exp[la:la + n].__getitem__, logs)]
                                 for la in logs]

    # -- squares, roots of unity ------------------------------------------

    def is_square(self, a: int) -> bool:
        if a == 0 or self.p == 2:
            return True
        if self.log is not None:
            return self.log[a] % 2 == 0
        return self.power(a, (self.q - 1) // 2) == 1

    def sqrt_min(self, a: int) -> Optional[int]:
        """Smallest code r with r*r = a, or None when a is a non-square.
        Below the exp/log cap the root is half the log; above it, Tonelli
        and Shanks: with q - 1 = s 2^e, s odd, and z a non-square,
        r = a^((s+1)/2) has r^2 = a t for t = a^s, a root of unity of
        2-power order, which powers of c = z^s cancel one bit at a time."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.power(a, self.q // 2)
        if not self.is_square(a):
            return None
        if self.log is not None:
            r = self.exp[self.log[a] // 2]
            return min(r, self.neg(r))
        s, e = self.q - 1, 0
        while s % 2 == 0:
            s, e = s // 2, e + 1
        z = next(c for c in range(2, self.q) if not self.is_square(c))
        c, t, r = (self.power(z, s), self.power(a, s),
                   self.power(a, (s + 1) // 2))
        while t != 1:
            i, t2 = 1, self.mul(t, t)       # t has order 2^i, i < e
            while t2 != 1:
                i, t2 = i + 1, self.mul(t2, t2)
            b = self.power(c, 1 << (e - i - 1))
            e, c = i, self.mul(b, b)
            t, r = self.mul(t, c), self.mul(r, b)
        return min(r, self.neg(r))

    def primitive_nth_root(self, n: int) -> int:
        if n < 1 or (self.q - 1) % n != 0:
            raise NotADivisor(f"{n} does not divide q - 1 = {self.q - 1}")
        if self.g is None:
            self.g = self._find_generator()
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
        a^2 + b^2 = 0, or None when there is none.  -a^2 is a square
        exactly when -1 is, so the first is (1, sqrt_min(-1)), and there
        is none exactly when -1 is a non-square (never in characteristic
        2, where (1, 1) works)."""
        r = self.sqrt_min(self.neg(1))
        return None if r is None else (1, r)

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

    def self_dual_basis(self) -> Optional[list[int]]:
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
        pivots, det = _rref_rows(base, gram_pow)
        assert len(pivots) == ell, "trace form must be non-degenerate"
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

        rng = random.Random(_SELF_DUAL_SEED)
        for _ in range(_SELF_DUAL_RETRIES):
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

        if self.q > _EXHAUSTIVE_MAX:
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

def _minus_row(ctx: FieldCtx) -> Sequence[int]:
    """The row read as row[a] = -a: the muls row of -1, or in
    characteristic 2 the identity, so that a computed row above the table
    cap does not pay a product per negation."""
    return range(ctx.q) if ctx.p == 2 else ctx.tables()[1][ctx.neg(1)]


def _rref_rows(ctx: FieldCtx, rows: list[list[int]]) -> tuple[list[int], int]:
    """Reduce rows in place to reduced row echelon form; the rows past the
    last pivot end up zero.  Returns the pivot columns and the product of
    the pivots met, negated once per row swap: for a square matrix that is
    the determinant when every column has a pivot."""
    adds, muls = ctx.tables()
    inv, minus = ctx.inv, _minus_row(ctx)
    ncols = len(rows[0]) if rows else 0
    pivots, r, det = [], 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = minus[det]
        v = rows[r][col]
        det = muls[det][v]
        if v != 1:
            s = muls[inv(v)]
            rows[r] = [s[x] for x in rows[r]]
        prow = rows[r]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                m = muls[minus[f]]
                rows[i] = [adds[a][m[b]] for a, b in zip(row, prow)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots, det


def _nullspace_rows(ctx: FieldCtx, rows: list[list[int]],
                    ncols: int) -> list[list[int]]:
    """Vectors x with row . x = 0 for every row: one per free column of the
    reduced rows, in column order, with a 1 there."""
    pivots, _ = _rref_rows(ctx, rows)
    pivot_set = set(pivots)
    minus = _minus_row(ctx)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(rows, pivots):
            vec[p] = minus[row[f]]
        out.append(vec)
    return out


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
    # peel prime exponents k off while p is a perfect k-th power; v is a
    # prime power exactly when the p left is prime
    p, m = v, 1
    for k in filter(is_prime, range(2, v.bit_length())):
        r = _iroot(p, k)
        while r ** k == p:
            p, m = r, m * k
            r = _iroot(p, k)
    if not is_prime(p):
        raise ParseError(f"{v} is not a prime power")
    return field_create(p, m)
