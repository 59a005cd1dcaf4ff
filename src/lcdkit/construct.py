"""LCD code constructions.

Five families, all returning LinearCode objects:

  * row selection from an orthogonal matrix, optionally twisted by row
    scaling and/or 2 x 2 rotation blocks (the Gram stays invertible, so
    the result is always LCD);
  * extension by two coordinates built from an isotropic pair a^2 + b^2
    = 0, which preserves the Gram matrix entrywise, followed by an
    optional dimension bump that appends a (0,...,0,s,t) row;
  * matrix-product codes [C_1,...,C_l] A-bar, where A-bar is a scaled
    (optionally block-rotated) orthogonal matrix: the product is LCD
    exactly when every component is;
  * projection of a code over a tower GF(q^l)/GF(q) down to the base
    field through a self-dual basis, which preserves LCD-ness in both
    directions;
  * the cyclic route: an [n, k] self-orthogonal MDS code built from a
    primitive n-th root of unity (n | q-1), then shortened/punctured
    through its systematic form into [n-k, k', n-k+1-k'] MDS LCD codes.

Every record the tooling writes is built here with its provenance, by
search_random_lcd, extension_record, product_record, projection_record
and rs_pipeline, and replay_record regenerates each one's generator
byte for byte from that provenance alone.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Optional, Sequence

from . import gf, orthogen
from .codes import EXACT, CodeRecord, LinearCode
from .errors import (
    BlockCountMismatch,
    ComponentNotLCD,
    ContextMismatch,
    DegenerateBlock,
    DimensionTooLarge,
    InvalidValue,
    MixedLengths,
    NoIsotropicPair,
    NoSystematicForm,
    NotADivisor,
    NotATower,
    NotLCD,
    NotOrthogonal,
    NotSelfDualBasis,
    ParseError,
    RankDeficient,
    ZeroScalar,
)
from .matfq import MatrixFq

def _elements(ctx: gf.FieldCtx, values: Sequence[int], what: str) -> list[int]:
    """values as a list of field codes, each checked to lie in [0, q)."""
    out = [int(v) for v in values]
    for v in out:
        if not 0 <= v < ctx.q:
            raise InvalidValue(f"{what} {v} is outside the codes [0, {ctx.q}) "
                               f"of GF({ctx.descriptor})")
    return out


def _scalars(ctx: gf.FieldCtx, values: Sequence[int], count: int) -> list[int]:
    """count nonzero field codes, checked."""
    lam = _elements(ctx, values, "scalar")
    if len(lam) != count:
        raise InvalidValue(f"need {count} scalars, got {len(lam)}")
    if any(v == 0 for v in lam):
        raise ZeroScalar("scalars must be nonzero")
    return lam


# ---------------------------------------------------------------------------
# rows of orthogonal matrices, scaled and rotated

def lcd_from_rows(A: MatrixFq, row_indices: Sequence[int]) -> LinearCode:
    """The code spanned by the chosen rows of an orthogonal matrix.  Its
    Gram matrix is an identity, so it is LCD by construction."""
    if not A.is_orthogonal():
        raise NotOrthogonal("row source must satisfy A A^T = I")
    idx = list(row_indices)
    if len(set(idx)) != len(idx):
        raise InvalidValue("row indices must be distinct")
    code = LinearCode.from_basis(A.take_rows(idx), verify_rank=False)
    assert code.is_lcd()
    return code


def apply_row_scaling(C: LinearCode, scalars: Sequence[int]) -> LinearCode:
    """diag(scalars) G: same code, reshaped generator; all scalars nonzero."""
    lam = _scalars(C.ctx, scalars, C.k)
    return LinearCode.from_basis(C.G.scale_rows(lam), verify_rank=False)


def rotation_block_diagonal(ctx: gf.FieldCtx, blocks: Sequence[Sequence[int]],
                            k: int) -> MatrixFq:
    """blockdiag(D_1, ..., D_{k//2}[, 1]) with D = [[a, b], [-b, a]]; each
    block is given as its pair (a, b)."""
    if len(blocks) != k // 2:
        raise BlockCountMismatch(f"need {k // 2} blocks for k={k}")
    m = [[0] * k for _ in range(k)]
    for i, blk in enumerate(blocks):
        if len(blk) != 2:
            raise InvalidValue(f"block {i} needs 2 entries, got {len(blk)}")
        a, b = _elements(ctx, blk, "block entry")
        if a == 0 or b == 0:
            raise DegenerateBlock("block entries must be nonzero")
        if ctx.add(ctx.mul(a, a), ctx.mul(b, b)) == 0:
            raise DegenerateBlock("a^2 + b^2 = 0 makes the block singular")
        r = 2 * i
        m[r][r], m[r][r + 1] = a, b
        m[r + 1][r], m[r + 1][r + 1] = ctx.neg(b), a
    if k % 2:
        m[k - 1][k - 1] = 1
    return MatrixFq.from_rows(ctx, m)


def _twist(G: MatrixFq, lam: Optional[Sequence[int]],
           blocks: Optional[Sequence[Sequence[int]]]) -> MatrixFq:
    """diag(lam) blockdiag(D_i) G; None skips the rotation or the scaling."""
    if blocks is not None:
        G = rotation_block_diagonal(G.ctx, blocks, G.r) @ G
    return G if lam is None else G.scale_rows(lam)


def apply_rotation_blocks(A: MatrixFq, row_indices: Sequence[int],
                          scalars: Sequence[int],
                          blocks: Sequence[Sequence[int]]) -> LinearCode:
    """diag(scalars) blockdiag(D_i) A_k.  Each D_i mixes two neighbouring
    rows; odd k leaves the last row alone.  Still LCD: the Gram is block
    diagonal with invertible blocks."""
    base = lcd_from_rows(A, row_indices)
    lam = _scalars(A.ctx, scalars, base.k)
    code = LinearCode.from_basis(_twist(base.G, lam, blocks),
                                 verify_rank=False)
    assert code.is_lcd()
    return code


# ---------------------------------------------------------------------------
# extension by two coordinates

def extend_by_two(C: LinearCode, lambdas: Sequence[int],
                  pair: Optional[Sequence[int]] = None) -> LinearCode:
    """Append two coordinates using an isotropic pair a^2 + b^2 = 0.

    Row i (1-indexed) gains the suffix (lam_i a, lam_i b) when i is odd
    and (lam_i (-b), lam_i a) when i is even.  Every cross term the new
    coordinates contribute to the Gram matrix cancels, so the Gram is
    preserved entrywise and the code stays LCD with d >= d(C).  The
    lambdas may be zero.
    """
    ctx = C.ctx
    if not C.is_lcd():
        raise NotLCD("extension input must be LCD")
    if pair is None:
        found = ctx.isotropic_pair()
        if found is None:
            raise NoIsotropicPair(
                f"no nonzero a, b with a^2 + b^2 = 0 over GF({ctx.descriptor})")
        a, b = found
    else:
        if len(pair) != 2:
            raise InvalidValue(f"pair needs 2 entries, got {len(pair)}")
        a, b = _elements(ctx, pair, "pair entry")
        if a == 0 or b == 0 or ctx.add(ctx.mul(a, a), ctx.mul(b, b)) != 0:
            raise InvalidValue("pair must be nonzero with a^2 + b^2 = 0")
    lam = _elements(ctx, lambdas, "lambda")
    if len(lam) != C.k:
        raise InvalidValue(f"need {C.k} lambdas, got {len(lam)}")
    neg_b = ctx.neg(b)
    rows = []
    for i, row in enumerate(C.G.rows()):
        l = lam[i]
        if i % 2 == 0:  # 1-indexed odd
            suffix = (ctx.mul(l, a), ctx.mul(l, b))
        else:
            suffix = (ctx.mul(l, neg_b), ctx.mul(l, a))
        rows.append(row + suffix)
    out = LinearCode.from_basis(MatrixFq.from_rows(ctx, rows),
                                verify_rank=False)
    assert out.gram() == C.gram()
    return out


def extend_dimension(C_ext: LinearCode) -> Optional[LinearCode]:
    """Append a (0, ..., 0, s, t) row, scanning (s, t) != (0, 0) in code
    order until the enlarged code is LCD; None when nothing works."""
    ctx = C_ext.ctx
    zeros = (0,) * (C_ext.n - 2)
    for s in range(ctx.q):
        for t in range(ctx.q):
            if s == 0 and t == 0:
                continue
            row = MatrixFq(ctx, 1, C_ext.n, zeros + (s, t))
            aug = C_ext.G.vstack(row)
            if aug.gram().det() != 0:
                return LinearCode.from_basis(aug, verify_rank=False)
    return None


def extension_record(C: LinearCode, lambdas: Optional[Sequence[int]] = None,
                     pair: Optional[Sequence[int]] = None,
                     grow: bool = False) -> Optional[CodeRecord]:
    """The "extended" record of extend_by_two(C, lambdas, pair), followed
    by extend_dimension when grow is set.  The lambdas default to ones and
    the pair to the field's first isotropic pair; None when grow finds no
    row that keeps the code LCD."""
    lam = lambdas or [1] * C.k
    pair = pair or C.ctx.isotropic_pair()
    ext = extend_by_two(C, lam, pair)
    added_row = None
    if grow:
        ext = extend_dimension(ext)
        if ext is None:
            return None
        added_row = list(ext.G.rows()[-1][-2:])
    provenance = {
        "kind": "extended",
        "base": C.G.to_text(),
        "pair": list(pair),
        "lambdas": lam,
        "added_row": added_row,
    }
    return CodeRecord.from_code(ext, "extended", provenance)


# ---------------------------------------------------------------------------
# matrix-product codes

def matrix_product_generator(codes: Sequence[LinearCode],
                             A: MatrixFq) -> MatrixFq:
    """Block generator with (i, j) block a_ij G_i, stacked over i."""
    if not codes:
        raise InvalidValue("need at least one component code")
    ctx = A.ctx
    n = codes[0].n
    for c in codes:
        if c.ctx != ctx:
            raise ContextMismatch("components and A must share a field")
        if c.n != n:
            raise MixedLengths("components must share a length")
    if A.r != len(codes):
        raise MixedLengths(f"A has {A.r} rows for {len(codes)} components")
    if A.rank() != A.r:
        raise RankDeficient("inner matrix must have full row rank")
    rows = []
    for i, c in enumerate(codes):
        for grow in c.G.rows():
            out = []
            for j in range(A.c):
                a = A[i, j]
                out.extend(ctx.mul(a, v) for v in grow)
            rows.append(out)
    return MatrixFq.from_rows(ctx, rows)


def matrix_product_code(codes: Sequence[LinearCode], A: MatrixFq) -> LinearCode:
    """[C_1, ..., C_l] A as a code of length (cols of A) * n."""
    gen = matrix_product_generator(codes, A)
    if gen.rank() != gen.r:
        raise RankDeficient("block generator lost rank")
    return LinearCode.from_basis(gen, verify_rank=False)


def scaled_orthogonal(base: MatrixFq, scalars: Sequence[int],
                      blocks: Optional[Sequence[Sequence[int]]] = None
                      ) -> MatrixFq:
    """A-bar = diag(scalars) [blockdiag(D_i)] base, for an orthogonal base
    and nonzero scalars: the inner matrix of mplcd_build."""
    if not base.is_orthogonal():
        raise NotOrthogonal("base must satisfy A A^T = I")
    return _twist(base, _scalars(base.ctx, scalars, base.r), blocks)


def mplcd_build(codes: Sequence[LinearCode], base: MatrixFq,
                scalars: Sequence[int],
                blocks: Optional[Sequence[Sequence[int]]] = None
                ) -> LinearCode:
    """[C_1, ..., C_l] A-bar with A-bar = scaled_orthogonal(base, scalars,
    blocks).  LCD if and only if every component is; the failing
    component's index rides on the error."""
    return _lcd_product(codes, scaled_orthogonal(base, scalars, blocks))


def _lcd_product(codes: Sequence[LinearCode], a_bar: MatrixFq) -> LinearCode:
    """[C_1, ..., C_l] A-bar for an A-bar already checked and scaled."""
    for i, c in enumerate(codes):
        if not c.is_lcd():
            raise ComponentNotLCD(i)
    out = matrix_product_code(codes, a_bar)
    assert out.is_lcd()
    return out


def product_record(codes: Sequence[LinearCode], base: MatrixFq,
                   scalars: Sequence[int],
                   blocks: Optional[Sequence[Sequence[int]]] = None
                   ) -> CodeRecord:
    """The "matrix_product" record of mplcd_build(codes, base, scalars,
    blocks); it keeps A-bar, so replay needs no orthogonality check."""
    a_bar = scaled_orthogonal(base, scalars, blocks)
    provenance = {
        "kind": "matrix_product",
        "components": [c.G.to_text() for c in codes],
        "a_bar": a_bar.to_text(),
    }
    return CodeRecord.from_code(_lcd_product(codes, a_bar),
                                "matrix_product", provenance)


# ---------------------------------------------------------------------------
# projection along a self-dual basis

def _checked_basis(ctx: gf.FieldCtx, basis: Sequence[int]) -> list[int]:
    ell = ctx.degree
    bs = _elements(ctx, basis, "basis element")
    if len(bs) != ell:
        raise NotSelfDualBasis(f"basis needs {ell} elements")
    for i in range(ell):
        for j in range(i, ell):
            t = ctx.trace_code(ctx.mul(bs[i], bs[j]))
            if t != (1 if i == j else 0):
                raise NotSelfDualBasis(
                    f"Tr(e_{i} e_{j}) = {t}, basis is not self-dual")
    return bs


def expand_symbol(ctx: gf.FieldCtx, basis_codes: Sequence[int],
                  x: int) -> tuple[int, ...]:
    """Coordinates of x in the basis: self-duality makes them traces."""
    return tuple(ctx.trace_code(ctx.mul(e, x)) for e in basis_codes)


def project_to_subfield(C: LinearCode, basis: Sequence[int]) -> LinearCode:
    """Image of the code under coordinate-wise basis expansion: an
    [n*l, k*l] code over the base field, LCD exactly when C is."""
    ctx = C.ctx
    if ctx.base is None:
        raise NotATower("projection needs an extension field")
    bs = _checked_basis(ctx, basis)
    base = ctx.base
    ell = ctx.degree
    rows = []
    for grow in C.G.rows():
        for e in bs:
            out = []
            for x in grow:
                out.extend(expand_symbol(ctx, bs, ctx.mul(e, x)))
            rows.append(out)
    projected = LinearCode.from_generator(MatrixFq.from_rows(base, rows))
    assert projected.n == C.n * ell and projected.k == C.k * ell
    return projected


def projection_record(C: LinearCode, basis: Sequence[int]) -> CodeRecord:
    """The "projection" record of project_to_subfield(C, basis)."""
    projected = project_to_subfield(C, basis)
    provenance = {"kind": "projection", "source": C.G.to_text(),
                  "basis": basis}
    return CodeRecord.from_code(projected, "projection", provenance)


# ---------------------------------------------------------------------------
# cyclic self-orthogonal MDS codes and the shortening pipeline

def cyclic_mds_self_orthogonal(ctx: gf.FieldCtx, n: int, k: int) -> LinearCode:
    """[n, k] self-orthogonal MDS code: the dual of the cyclic code whose
    generator polynomial has the first k powers of a primitive n-th root
    of unity as roots.  Requires n | q - 1 and 1 <= k <= (n - 1) // 2."""
    if n < 2 or (ctx.q - 1) % n != 0:
        raise NotADivisor(f"need n | q - 1; got n={n}, q={ctx.q}")
    if not 1 <= k <= (n - 1) // 2:
        raise DimensionTooLarge(f"need 1 <= k <= {(n - 1) // 2}, got {k}")
    zeta = ctx.primitive_nth_root(n)
    # g(x) = prod_{i=1..k} (x - zeta^i), ascending coefficients
    g = [1]
    for i in range(1, k + 1):
        root = ctx.power(zeta, i)
        nxt = [0] * (len(g) + 1)
        for d, c in enumerate(g):
            nxt[d + 1] = ctx.add(nxt[d + 1], c)
            nxt[d] = ctx.sub(nxt[d], ctx.mul(c, root))
        g = nxt
    shifts = [[0] * i + g + [0] * (n - k - 1 - i) for i in range(n - k)]
    D = LinearCode.from_generator(MatrixFq.from_rows(ctx, shifts))
    C = D.dual()
    assert C.k == k
    assert C.gram().is_zero(), "dual of the BCH-style code must be self-orthogonal"
    dist = C.distance()
    assert dist.status == EXACT and dist.value == n - k + 1, dist
    return C


def systematic_parity_part(C: LinearCode) -> tuple[MatrixFq, tuple[int, ...]]:
    """(A, column_permutation) with G ~ (I_k | A) after permuting the
    pivot columns to the front; the permutation maps new positions to
    original ones."""
    red, pivots = C.G.rref()
    if len(pivots) != C.k:
        raise NoSystematicForm("generator is rank deficient")
    rest = [j for j in range(C.n) if j not in set(pivots)]
    perm = tuple(pivots) + tuple(rest)
    return red.take_cols(rest), perm


def mds_lcd_from_self_orthogonal(C: LinearCode, k_prime: int) -> LinearCode:
    """Last k' rows of the parity part A of a self-orthogonal MDS [n, k]
    code: an [n - k, k', n - k + 1 - k'] MDS LCD code (A A^T = -I makes
    every row subset's Gram invertible)."""
    if not 1 <= k_prime <= C.k:
        raise DimensionTooLarge(f"need 1 <= k' <= {C.k}, got {k_prime}")
    A, _ = systematic_parity_part(C)
    G = A.take_rows(range(C.k - k_prime, C.k))
    out = LinearCode.from_basis(G, verify_rank=False)
    assert out.is_lcd()
    dist = out.distance()
    assert dist.status == EXACT and dist.value == out.n - out.k + 1, dist
    return out


def rs_pipeline(ctx: gf.FieldCtx, n: int, k: int,
                k_primes: Optional[Sequence[int]] = None) -> list[CodeRecord]:
    """Full cyclic-to-LCD run: one verified MDS LCD record per k'."""
    C = cyclic_mds_self_orthogonal(ctx, n, k)
    _, perm = systematic_parity_part(C)
    records = []
    for k_prime in (k_primes if k_primes is not None else range(1, k + 1)):
        code = mds_lcd_from_self_orthogonal(C, k_prime)
        provenance = {
            "kind": "rs_lemma3",
            "n": n,
            "k": k,
            "k_prime": int(k_prime),
            "column_permutation": list(perm),
            "m_gt_1": ctx.m > 1,
        }
        records.append(CodeRecord.from_code(code, "rs_lemma3", provenance))
    return records


# ---------------------------------------------------------------------------
# randomized search

TWIST_ATTEMPTS = 32


def _random_twist(ctx: gf.FieldCtx, k: int,
                  rng: random.Random) -> tuple[list[int], list[list[int]]]:
    """Up to TWIST_ATTEMPTS draws of (lambdas, blocks); a draw is valid
    when every block has nonzero entries and a^2 + b^2 != 0.  Fields with
    no valid block at all (only GF(2)) fall back to the identity twist."""
    for _ in range(TWIST_ATTEMPTS):
        lam = [rng.randrange(1, ctx.q) for _ in range(k)]
        blocks = [[rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)]
                  for _ in range(k // 2)]
        if all(ctx.add(ctx.mul(a, a), ctx.mul(b, b)) != 0
               for a, b in blocks):
            return lam, blocks
    return [1] * k, []


def search_random_lcd(ctx: gf.FieldCtx, n: int, k: int, target_d: int,
                      budget: int, seed: int = 0,
                      walk_length: int = orthogen.DEFAULT_WALK_LENGTH,
                      ) -> Optional[CodeRecord]:
    """Sample orthogonal matrices by seeded random walk, keep those whose
    rows all have weight >= target_d, and scan their k-row subsets for an
    exact minimum distance >= target_d.  The first hit is decorated by a
    seeded scaling/rotation twist (which cannot change the code's
    parameters, only the recorded generator) and returned; None when the
    trial budget runs out.  Trial t uses walk seed seed * 1_000_003 + t,
    so trials are independent and any schedule replays identically.
    """
    if budget < 1:
        raise InvalidValue("budget must be positive")
    if not 1 <= k <= n:
        raise InvalidValue(f"k = {k} is outside 1..n = {n}")
    gens = orthogen.generator_set(ctx, n)
    for trial in range(budget):
        walk_seed = seed * 1_000_003 + trial
        A = orthogen.random_orthogonal(gens, walk_length, walk_seed)
        if any(w < target_d for w in A.row_weights()):
            continue
        for subset in combinations(range(n), k):
            code = LinearCode.from_basis(A.take_rows(subset),
                                         verify_rank=False)
            dist = code.distance(at_least=target_d)
            if dist.status != EXACT or dist.value < target_d:
                continue
            rng = random.Random(walk_seed * 2 + 1)
            lam, blocks = _random_twist(ctx, k, rng)
            G = _twist(code.G, lam, blocks or None)
            tag = "rotated" if blocks else "scaled"
            provenance = {
                "kind": "search",
                "seed": seed,
                "trial": trial,
                "walk_length": walk_length,
                "row_indices": list(subset),
                "lambdas": lam,
                "blocks": blocks,
            }
            return CodeRecord(field=ctx.descriptor, n=n, k=k,
                              d=dist.value, d_status=EXACT, tag=tag,
                              provenance=provenance, matrix=G.to_text())
    return None


# ---------------------------------------------------------------------------
# provenance replay

def replay_record(record: CodeRecord) -> MatrixFq:
    """Rebuild a record's generator matrix from its provenance alone.
    The result must equal record.generator() byte for byte."""
    prov = record.provenance
    kind = prov.get("kind")
    ctx = gf.parse_field(record.field)
    if kind in ("search", "rows"):
        walk_seed = (prov["walk_seed"] if kind == "rows"
                     else prov["seed"] * 1_000_003 + prov["trial"])
        gens = orthogen.generator_set(ctx, record.n)
        A = orthogen.random_orthogonal(gens, prov["walk_length"], walk_seed)
        return _twist(A.take_rows(prov["row_indices"]),
                      prov.get("lambdas") or None, prov.get("blocks") or None)
    if kind == "extended":
        base = LinearCode.from_basis(MatrixFq.from_text(prov["base"]),
                                     verify_rank=False)
        pair = tuple(prov["pair"])
        ext = extend_by_two(base, prov["lambdas"], pair)
        if prov.get("added_row") is not None:
            s, t = prov["added_row"]
            row = MatrixFq(ext.ctx, 1, ext.n,
                           (0,) * (ext.n - 2) + (s, t))
            return ext.G.vstack(row)
        return ext.G
    if kind == "matrix_product":
        comps = [LinearCode.from_basis(MatrixFq.from_text(t),
                                       verify_rank=False)
                 for t in prov["components"]]
        a_bar = MatrixFq.from_text(prov["a_bar"])
        return matrix_product_generator(comps, a_bar)
    if kind == "projection":
        src = LinearCode.from_basis(MatrixFq.from_text(prov["source"]),
                                    verify_rank=False)
        return project_to_subfield(src, prov["basis"]).G
    if kind == "rs_lemma3":
        C = cyclic_mds_self_orthogonal(ctx, prov["n"], prov["k"])
        return mds_lcd_from_self_orthogonal(C, prov["k_prime"]).G
    raise ParseError(f"unknown provenance kind {kind!r}")
