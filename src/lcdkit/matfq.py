"""Exact dense matrices over a field context.

Matrices are immutable value types: entries are a flat tuple of element
codes in row-major order, so matrices hash and compare cheaply.  rref, det
and nullspace are thin wrappers around the row-list elimination kernel in
gf, whose first-nonzero pivoting makes reduced row echelon form canonical
for code comparison.

Text serialization is one header line "<field> <rows> <cols>" followed by
one line of space-separated codes per row; parsing with the same default
moduli round-trips bit-exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import gf
from .errors import (ContextMismatch, InvalidValue, ParseError,
                     ShapeMismatch, Singular)


class MatrixFq:
    """r x c matrix over a field context, entries as a flat code tuple."""

    __slots__ = ("ctx", "r", "c", "entries")

    def __init__(self, ctx: gf.FieldCtx, r: int, c: int,
                 entries: Iterable[int]):
        entries = tuple(entries)
        if len(entries) != r * c:
            raise ShapeMismatch(f"need {r * c} entries, got {len(entries)}")
        self.ctx, self.r, self.c, self.entries = ctx, r, c, entries

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: gf.FieldCtx, rows: Sequence[Sequence[int]]) -> "MatrixFq":
        rows = [list(row) for row in rows]
        r = len(rows)
        c = len(rows[0]) if rows else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            for v in row:
                v = int(v)
                if not 0 <= v < ctx.q:
                    raise InvalidValue(f"code {v} outside [0, {ctx.q})")
                flat.append(v)
        return cls(ctx, r, c, flat)

    @classmethod
    def identity(cls, ctx: gf.FieldCtx, n: int) -> "MatrixFq":
        return cls(ctx, n, n,
                   (1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, ctx: gf.FieldCtx, r: int, c: int) -> "MatrixFq":
        return cls(ctx, r, c, (0,) * (r * c))

    @classmethod
    def diagonal(cls, ctx: gf.FieldCtx, values: Sequence[int]) -> "MatrixFq":
        n = len(values)
        return cls(ctx, n, n,
                   (values[i] if i == j else 0
                    for i in range(n) for j in range(n)))

    @classmethod
    def permutation(cls, ctx: gf.FieldCtx, sigma: Sequence[int]) -> "MatrixFq":
        """Matrix sending coordinate i to sigma[i] under right action x -> xP."""
        n = len(sigma)
        if sorted(sigma) != list(range(n)):
            raise InvalidValue("not a permutation")
        flat = [0] * (n * n)
        for i, s in enumerate(sigma):
            flat[i * n + s] = 1
        return cls(ctx, n, n, flat)

    # -- access -------------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.c:(i + 1) * self.c]

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.r)]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j::self.c]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.c + j]

    def row_weights(self) -> list[int]:
        return [sum(1 for v in self.row(i) if v) for i in range(self.r)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- shape surgery -------------------------------------------------------

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.ctx, self.c, self.r,
                        (self.entries[j * self.c + i]
                         for i in range(self.c) for j in range(self.r)))

    @property
    def T(self) -> "MatrixFq":
        return self.transpose()

    def take_rows(self, idx: Sequence[int]) -> "MatrixFq":
        flat = []
        for i in idx:
            flat.extend(self.row(i))
        return MatrixFq(self.ctx, len(idx), self.c, flat)

    def take_cols(self, idx: Sequence[int]) -> "MatrixFq":
        flat = []
        for i in range(self.r):
            row = self.row(i)
            flat.extend(row[j] for j in idx)
        return MatrixFq(self.ctx, self.r, len(idx), flat)

    def drop_cols(self, idx: Sequence[int]) -> "MatrixFq":
        drop = set(idx)
        keep = [j for j in range(self.c) if j not in drop]
        return self.take_cols(keep)

    def hstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different fields")
        if self.r != other.r:
            raise ShapeMismatch("row counts differ")
        flat = []
        for i in range(self.r):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return MatrixFq(self.ctx, self.r, self.c + other.c, flat)

    def vstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different fields")
        if self.c != other.c:
            raise ShapeMismatch("column counts differ")
        return MatrixFq(self.ctx, self.r + other.r, self.c,
                        self.entries + other.entries)

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if not isinstance(other, MatrixFq):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different fields")
        if self.c != other.r:
            raise ShapeMismatch(f"{self.r}x{self.c} @ {other.r}x{other.c}")
        ctx = self.ctx
        add, mul = ctx.add, ctx.mul
        n, inner, m = self.r, self.c, other.c
        cols = [other.col(j) for j in range(m)]
        flat = []
        for i in range(n):
            arow = self.row(i)
            for col in cols:
                s = 0
                for a, b in zip(arow, col):
                    if a and b:
                        s = add(s, mul(a, b))
                flat.append(s)
        return MatrixFq(ctx, n, m, flat)

    def scale_rows(self, scalars: Sequence[int]) -> "MatrixFq":
        if len(scalars) != self.r:
            raise ShapeMismatch("one scalar per row required")
        mul = self.ctx.mul
        flat = []
        for i, s in enumerate(scalars):
            flat.extend(mul(s, v) for v in self.row(i))
        return MatrixFq(self.ctx, self.r, self.c, flat)

    def gram(self) -> "MatrixFq":
        return self @ self.transpose()

    def is_orthogonal(self) -> bool:
        return self.r == self.c and self.gram() == MatrixFq.identity(self.ctx, self.r)

    # -- elimination ----------------------------------------------------------

    def _row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.r)]

    def rref(self) -> tuple["MatrixFq", tuple[int, ...]]:
        """Reduced row echelon form, zero rows at the bottom, and its pivot
        columns."""
        rows = self._row_lists()
        pivots = gf._rref_rows(self.ctx, rows)
        flat = [v for row in rows for v in row]
        return MatrixFq(self.ctx, self.r, self.c, flat), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> int:
        if self.r != self.c:
            raise ShapeMismatch("determinant needs a square matrix")
        return gf._det_rows(self.ctx, self._row_lists())

    def inverse(self) -> "MatrixFq":
        if self.r != self.c:
            raise ShapeMismatch("inverse needs a square matrix")
        aug = self.hstack(MatrixFq.identity(self.ctx, self.r))
        red, pivots = aug.rref()
        if tuple(pivots) != tuple(range(self.r)):
            raise Singular("matrix is singular")
        return red.take_cols(range(self.r, 2 * self.r))

    def nullspace(self) -> "MatrixFq":
        """Basis rows h with self @ h^T = 0; (c - rank) rows, deterministic."""
        null = gf._nullspace_rows(self.ctx, self._row_lists(), self.c)
        return MatrixFq(self.ctx, len(null), self.c,
                        [v for row in null for v in row])

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.ctx.descriptor} {self.r} {self.c}"]
        for i in range(self.r):
            lines.append(" ".join(str(v) for v in self.row(i)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MatrixFq":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise ParseError(f"bad matrix header {lines[0]!r}")
        ctx = gf.parse_field(head[0])
        try:
            r, c = int(head[1]), int(head[2])
        except ValueError:
            raise ParseError(f"bad matrix header {lines[0]!r}") from None
        if r < 0 or c < 0:
            raise ParseError(f"negative size in header {lines[0]!r}")
        if len(lines) - 1 != r:
            raise ParseError(f"expected {r} rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            try:
                row = [int(tok) for tok in ln.split()]
            except ValueError:
                raise ParseError(f"non-integer entry in {ln!r}") from None
            if len(row) != c:
                raise ParseError(f"expected {c} columns in {ln!r}")
            rows.append(row)
        # from_rows takes the width from the rows, and a 0 x c text has none
        return cls.from_rows(ctx, rows) if rows else cls.zeros(ctx, 0, c)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixFq) and self.ctx == other.ctx
                and self.r == other.r and self.c == other.c
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.r, self.c, self.entries))

    def __repr__(self) -> str:
        return f"MatrixFq({self.r}x{self.c} over GF({self.ctx.descriptor}))"
