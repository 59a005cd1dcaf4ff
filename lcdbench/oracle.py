"""Independent reference arithmetic for checking lcdkit's outputs.

Nothing here imports lcdkit or copies its code.  Fields are rebuilt from
their modulus polynomial: an element of GF(p^m) is the integer whose
base-p digits (least significant first) are its coefficients modulo that
polynomial, which is the encoding lcdkit documents for its element codes.
The field is accepted only after a generator of the whole multiplicative
group has been found, which proves the modulus irreducible.

On top of the field sit a separate Gaussian elimination (rank and
determinant), brute-force minimum distance and hull dimension for codes
small enough to enumerate, the trace map into the prime field, and the
classical order formula for the orthogonal group O_n(q), q odd.
"""

from __future__ import annotations

from itertools import combinations, product as _cartesian

class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def split_prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _irreducible_by_trial_division(p: int, poly: tuple[int, ...]) -> bool:
    """True when poly (monic, over GF(p)) has no monic factor of degree at
    most half its degree."""
    deg = len(poly) - 1

    def rem(a: list[int], b: tuple[int, ...]) -> list[int]:
        a = a[:]
        db = len(b) - 1
        inv_lead = pow(b[-1], p - 2, p)
        for top in range(len(a) - 1, db - 1, -1):
            c = a[top] * inv_lead % p
            if c:
                for j in range(db + 1):
                    a[top - db + j] = (a[top - db + j] - c * b[j]) % p
        return a[:db]

    for d in range(1, deg // 2 + 1):
        for low in _cartesian(range(p), repeat=d):
            if not any(rem(list(poly), tuple(low) + (1,))):
                return False
    return True


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The smallest monic irreducible of degree m over GF(p), candidates
    ordered by the integer whose base-p digits are the low coefficients."""
    if m == 1:
        return (0, 1)
    for t in range(p ** m):
        low, rest = [], t
        for _ in range(m):
            rest, c = divmod(rest, p)
            low.append(c)
        cand = tuple(low) + (1,)
        if low[0] and _irreducible_by_trial_division(p, cand):
            return cand
    raise ValueError(f"no irreducible of degree {m} over GF({p})")


class Field:
    """GF(p^m) from an explicit modulus, with exp/log and flat add tables."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        modulus = tuple(int(c) for c in modulus)
        m = len(modulus) - 1
        if m < 1 or modulus[-1] != 1 or any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus must be monic with digits below p")
        self.p, self.m, self.q, self.modulus = p, m, p ** m, modulus
        q = self.q
        self.powers_p = [p ** i for i in range(m)]
        add = [0] * (q * q)
        digits = [self._digits(a) for a in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(q):
                db = digits[b]
                add[a * q + b] = sum(((x + y) % p) * w for x, y, w
                                     in zip(da, db, self.powers_p))
        self.add_table = add
        self.neg_table = [sum(((-x) % p) * w for x, w
                              in zip(digits[a], self.powers_p))
                          for a in range(q)]
        self.exp, self.log = self._find_cyclic_group()

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            a, c = divmod(a, self.p)
            out.append(c)
        return out

    def _times_x(self, a: int) -> int:
        """a * x reduced by the modulus, on digit lists."""
        d = self._digits(a)
        top = d[-1]
        shifted = [0] + d[:-1]
        p = self.p
        out = [(shifted[i] - top * self.modulus[i]) % p
               for i in range(self.m)]
        return sum(c * w for c, w in zip(out, self.powers_p))

    def _slow_mul(self, a: int, b: int) -> int:
        """Shift-and-add product: sum of b_i * (a * x^i)."""
        acc, shifted = 0, a
        for bi in self._digits(b):
            for _ in range(bi):
                acc = self.add_table[acc * self.q + shifted]
            shifted = self._times_x(shifted)
        return acc

    def _find_cyclic_group(self):
        q = self.q
        if q == 2:
            return [1, 1], [-1, 0]
        for g in range(2, q) if self.m == 1 else range(self.p, q):
            exp = [1]
            v = g
            while v != 1 and len(exp) < q:
                exp.append(v)
                v = self._slow_mul(v, g)
            if len(exp) == q - 1 and v == 1:
                log = [-1] * q
                for i, e in enumerate(exp):
                    log[e] = i
                return exp + exp, log
        raise ValueError(f"modulus {self.modulus} is reducible over GF({self.p})")

    # -- element arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.q + b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a * self.q + self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def trace(self, a: int) -> int:
        """a + a^p + ... + a^(p^(m-1)), which lies in the prime field."""
        acc, y = 0, a
        for _ in range(self.m):
            acc = self.add(acc, y)
            y = self.pow(y, self.p)
        if acc >= self.p:
            raise CheckFailed(f"trace of {a} left the prime field")
        return acc

    # -- linear algebra ------------------------------------------------------

    def matmul(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        cols = list(zip(*b))
        out = []
        for row in a:
            out.append([self.dot(row, col) for col in cols])
        return out

    def dot(self, u, v) -> int:
        s = 0
        for x, y in zip(u, v):
            if x and y:
                s = self.add(s, self.mul(x, y))
        return s

    def gram(self, rows: list[list[int]]) -> list[list[int]]:
        return [[self.dot(u, v) for v in rows] for u in rows]

    def _eliminate(self, rows: list[list[int]]) -> tuple[int, int]:
        """(rank, product of pivots times the swap sign) by forward
        elimination on a copy; the second value is the determinant when
        the input is square and nonsingular."""
        work = [list(r) for r in rows]
        nrows = len(work)
        ncols = len(work[0]) if work else 0
        rank, det = 0, 1
        for col in range(ncols):
            piv = None
            for i in range(rank, nrows):
                if work[i][col]:
                    piv = i
                    break
            if piv is None:
                det = 0
                continue
            if piv != rank:
                work[rank], work[piv] = work[piv], work[rank]
                det = self.neg(det)
            pv = work[rank][col]
            det = self.mul(det, pv)
            inv = self.inv(pv)
            prow = work[rank]
            for i in range(rank + 1, nrows):
                f = work[i][col]
                if f:
                    f = self.mul(f, inv)
                    work[i] = [self.sub(x, self.mul(f, y))
                               for x, y in zip(work[i], prow)]
            rank += 1
            if rank == nrows:
                break
        return rank, det

    def rref(self, rows: list[list[int]]) -> list[list[int]]:
        """Nonzero rows of the reduced row echelon form, which depends only
        on the row space."""
        work = [list(r) for r in rows]
        ncols = len(work[0]) if work else 0
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, len(work)) if work[i][col]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = self.inv(work[r][col])
            work[r] = [self.mul(inv, v) for v in work[r]]
            for i in range(len(work)):
                f = work[i][col]
                if i != r and f:
                    work[i] = [self.sub(x, self.mul(f, y))
                               for x, y in zip(work[i], work[r])]
            r += 1
        return work[:r]

    def same_span(self, a: list[list[int]], b: list[list[int]]) -> bool:
        return self.rref(a) == self.rref(b)

    def rank(self, rows: list[list[int]]) -> int:
        return self._eliminate(rows)[0] if rows else 0

    def det(self, rows: list[list[int]]) -> int:
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("determinant needs a square matrix")
        rank, det = self._eliminate(rows)
        return det if rank == n else 0

    def is_lcd(self, rows: list[list[int]]) -> bool:
        return self.det(self.gram(rows)) != 0

    def hull_dim(self, rows: list[list[int]]) -> int:
        return len(rows) - self.rank(self.gram(rows))

    # -- exhaustive code properties -------------------------------------------

    def _messages(self, k: int):
        """One message per scalar class: first nonzero coefficient is 1."""
        q = self.q
        for lead in range(k):
            for tail in _cartesian(range(q), repeat=k - lead - 1):
                yield lead, tail

    def min_distance(self, rows: list[list[int]]) -> int:
        """Exact minimum distance by enumerating q^k / (q - 1) codewords."""
        k, n = len(rows), len(rows[0])
        expect(self.rank(rows) == k, "generator rows are dependent")
        q = self.q
        scaled = [[[self.mul(c, v) for v in row] for c in range(q)]
                  for row in rows]
        add = self.add_table
        best = n
        for lead, tail in self._messages(k):
            word = rows[lead]
            for c, srows in zip(tail, scaled[lead + 1:]):
                if c:
                    word = [add[x * q + y] for x, y in zip(word, srows[c])]
            w = n - word.count(0)
            if w < best:
                best = w
        return best

    def min_dependent_columns(self, h_rows: list[list[int]]) -> int:
        """Minimum distance of the code with parity-check rows h_rows: the
        size of the smallest linearly dependent set of their columns."""
        cols = list(zip(*h_rows))
        for w in range(1, len(h_rows) + 2):
            for subset in combinations(range(len(cols)), w):
                if self.rank([list(cols[j]) for j in subset]) < w:
                    return w
        raise CheckFailed("parity-check matrix has no dependent columns")

    def brute_hull_dim(self, rows: list[list[int]]) -> int:
        """log_q of the number of codewords orthogonal to every row."""
        k = len(rows)
        q = self.q
        count = 0
        for msg in _cartesian(range(q), repeat=k):
            word = [0] * len(rows[0])
            for c, row in zip(msg, rows):
                if c:
                    word = [self.add(x, self.mul(c, y)) for x, y in zip(word, row)]
            if all(self.dot(word, r) == 0 for r in rows):
                count += 1
        dim = 0
        while q ** dim < count:
            dim += 1
        expect(q ** dim == count, "hull size is not a power of q")
        return dim


_FIELDS: dict[tuple[int, int], Field] = {}


def field_for(q: int) -> Field:
    """GF(q) under the default modulus; built once per process."""
    p, m = split_prime_power(q)
    key = (p, m)
    if key not in _FIELDS:
        _FIELDS[key] = Field(p, default_modulus(p, m))
    return _FIELDS[key]


def orthogonal_group_order(n: int, q: int) -> int:
    """|O_n(q)| for the standard dot product over GF(q), q odd.

    Odd n = 2m + 1: 2 q^(m^2) prod_{i=1..m} (q^(2i) - 1).
    Even n = 2m: 2 q^(m(m-1)) (q^m - e) prod_{i=1..m-1} (q^(2i) - 1), where
    e = +1 when the form is split (discriminant (-1)^m a square), else -1.
    """
    if q % 2 == 0 or n < 1:
        raise ValueError("formula covers odd q and n >= 1")
    m = n // 2
    order = 2
    if n % 2:
        order *= q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
        return order
    minus_one_square = q % 4 == 1
    split = m % 2 == 0 or minus_one_square
    order *= q ** (m * (m - 1)) * (q ** m - (1 if split else -1))
    for i in range(1, m):
        order *= q ** (2 * i) - 1
    return order
