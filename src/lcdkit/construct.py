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
from typing import Iterator, Optional, Sequence

from . import gf, orthogen
from .codes import (DEFAULT_DISTANCE_BUDGET, EXACT, CodeRecord, LinearCode,
                    _distance_by_enumeration,
                    _every_column_subset_independent, _is_int, _is_str)
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
    ShapeMismatch,
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


def _block_pairs(ctx: gf.FieldCtx, blocks: Sequence[Sequence[int]],
                 k: int) -> list[tuple[int, int]]:
    """The blocks of a k-row rotation as checked (a, b) pairs: k // 2 of
    them, each with entries in the field, nonzero, and a^2 + b^2 != 0."""
    if len(blocks) != k // 2:
        raise BlockCountMismatch(f"need {k // 2} blocks for k={k}")
    adds, muls = ctx.tables()
    pairs = []
    for i, blk in enumerate(blocks):
        if len(blk) != 2:
            raise InvalidValue(f"block {i} needs 2 entries, got {len(blk)}")
        a, b = _elements(ctx, blk, "block entry")
        if a == 0 or b == 0:
            raise DegenerateBlock("block entries must be nonzero")
        if adds[muls[a][a]][muls[b][b]] == 0:
            raise DegenerateBlock("a^2 + b^2 = 0 makes the block singular")
        pairs.append((a, b))
    return pairs


def rotation_block_diagonal(ctx: gf.FieldCtx, blocks: Sequence[Sequence[int]],
                            k: int) -> MatrixFq:
    """blockdiag(D_1, ..., D_{k//2}[, 1]) with D = [[a, b], [-b, a]]; each
    block is given as its pair (a, b)."""
    m = [[0] * k for _ in range(k)]
    for i, (a, b) in enumerate(_block_pairs(ctx, blocks, k)):
        r = 2 * i
        m[r][r], m[r][r + 1] = a, b
        m[r + 1][r], m[r + 1][r + 1] = ctx.neg(b), a
    if k % 2:
        m[k - 1][k - 1] = 1
    return MatrixFq.from_rows(ctx, m)


def _twist(G: MatrixFq, lam: Optional[Sequence[int]],
           blocks: Optional[Sequence[Sequence[int]]]) -> MatrixFq:
    """diag(lam) blockdiag(D_i) G; None skips the rotation or the scaling.
    Each block D = [[a, b], [-b, a]] turns its two rows x, y into a x + b y
    and -b x + a y, and row i is then scaled by lam_i, in one pass over the
    rows through the field's tables: the product with the block diagonal
    matrix is never formed, and the entries are the same."""
    ctx, r = G.ctx, G.r
    pairs = [] if blocks is None else _block_pairs(ctx, blocks, r)
    if lam is None:
        lam = [1] * r
    elif len(lam) != r:
        raise ShapeMismatch("one scalar per row required")
    adds, muls = ctx.tables()
    minus = muls[ctx.neg(1)]
    rows = G.rows()
    flat: list[int] = []
    for i, (a, b) in enumerate(pairs):
        x, y = rows[2 * i], rows[2 * i + 1]
        s, t = muls[lam[2 * i]], muls[lam[2 * i + 1]]
        xa, xb = muls[s[a]], muls[s[b]]                 # s a, s b
        ya, yb = muls[t[minus[b]]], muls[t[a]]          # -t b, t a
        flat += [adds[xa[u]][xb[v]] for u, v in zip(x, y)]
        flat += [adds[ya[u]][yb[v]] for u, v in zip(x, y)]
    for i in range(2 * len(pairs), r):
        m = muls[lam[i]]
        flat += [m[u] for u in rows[i]]
    return MatrixFq(ctx, r, G.c, flat)


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
    adds, muls = ctx.tables()
    for _ in range(TWIST_ATTEMPTS):
        lam = [rng.randrange(1, ctx.q) for _ in range(k)]
        blocks = [[rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)]
                  for _ in range(k // 2)]
        if all(adds[muls[a][a]][muls[b][b]] for a, b in blocks):
            return lam, blocks
    return [1] * k, []


def search_random_lcd(ctx: gf.FieldCtx, n: int, k: int, target_d: int,
                      budget: int, seed: int = 0) -> Optional[CodeRecord]:
    """Sample orthogonal matrices uniformly (orthogen.random_orthogonal)
    and scan the k-row subsets of each, in combinations order, for an
    exact minimum distance >= target_d.  A row of a hit has weight >=
    target_d, so each sample is gated row by row as it is built
    (min_weight=target_d): the trial ends at its first lighter row, before
    the rest of the matrix is drawn.

    Each subset is decided by one of three kernels, picked by whether the
    target is MDS and whether q^k <= DEFAULT_DISTANCE_BUDGET.  An MDS
    target, target_d = n - k + 1 with q^k within the budget, is decided by
    _mds_subsets on the sample's rows, with no LinearCode per subset; only
    its hit goes through LinearCode.distance, which certifies the record's
    d and raises AssertionError should it disagree.  Any other target with
    q^k within the budget enumerates each subset's messages, stopping at
    the first codeword lighter than target_d
    (codes._distance_by_enumeration); above the budget each subset asks
    LinearCode.distance.

    The first hit is decorated by a seeded scaling/rotation twist (which
    cannot change the code's parameters, only the recorded generator) and
    returned as a "uniform" record; None when the trial budget runs out,
    and at once, without a trial, when target_d passes the Singleton
    bound n - k + 1.  Trial t samples with seed seed * 1_000_003 + t, so
    trials are independent and any schedule replays identically.
    """
    if budget < 1:
        raise InvalidValue("budget must be positive")
    if not 1 <= k <= n:
        raise InvalidValue(f"k = {k} is outside 1..n = {n}")
    if target_d > n - k + 1:
        return None
    enumerable = ctx.q ** k <= DEFAULT_DISTANCE_BUDGET
    mds = target_d == n - k + 1 and enumerable
    for trial in range(budget):
        trial_seed = _trial_seed(seed, trial)
        A = orthogen.random_orthogonal(ctx, n, trial_seed,
                                       min_weight=target_d)
        if A is None:
            continue
        hit = (_certified_mds_hit(A, k) if mds
               else _first_hit_by_distance(A, k, target_d, enumerable))
        if hit is None:
            continue
        subset, d = hit
        rng = random.Random(trial_seed * 2 + 1)
        lam, blocks = _random_twist(ctx, k, rng)
        G = _twist(A.take_rows(subset), lam, blocks or None)
        tag = "rotated" if blocks else "scaled"
        provenance = {
            "kind": "uniform",
            "seed": seed,
            "trial": trial,
            "row_indices": list(subset),
            "lambdas": lam,
            "blocks": blocks,
        }
        return CodeRecord(field=ctx.descriptor, n=n, k=k, d=d,
                          d_status=EXACT, tag=tag, provenance=provenance,
                          matrix=G.to_text())
    return None


def _first_hit_by_distance(A: MatrixFq, k: int, target_d: int,
                           enumerable: bool
                           ) -> Optional[tuple[tuple[int, ...], int]]:
    """(the first k-subset of A's rows whose code has exact d >= target_d,
    d), or None.  When enumerable (q^k within the distance budget) each
    subset's messages are enumerated until a codeword lighter than
    target_d; otherwise each subset asks LinearCode.distance."""
    rows = A.rows()
    for subset in combinations(range(A.r), k):
        if enumerable:
            d, _ = _distance_by_enumeration([rows[i] for i in subset], A.ctx,
                                            A.c, target_d)
        else:
            dist = LinearCode.from_basis(A.take_rows(subset),
                                         verify_rank=False).distance()
            if dist.status != EXACT:
                continue
            d = dist.value
        if d >= target_d:
            return subset, d
    return None


def _certified_mds_hit(A: MatrixFq, k: int
                       ) -> Optional[tuple[tuple[int, ...], int]]:
    """(the first k-subset S of the orthogonal A's rows that _mds_subsets
    passes, n - k + 1), or None.  The hit is certified by one distance
    call on the side the kernel tested, the complement of S when
    n > k > n - k and else S itself: its code is MDS too, so distance()
    runs the same Singleton certificate on the same rows, and the search
    raises unless it reads d = n - |side| + 1."""
    n = A.r
    subset = next((S for S, mds in _mds_subsets(A.ctx, A.rows(), k) if mds),
                  None)
    if subset is None:
        return None
    side = ([i for i in range(n) if i not in subset] if n > k > n - k
            else subset)
    dist = LinearCode.from_basis(A.take_rows(side),
                                 verify_rank=False).distance()
    if dist[:2] != (n - len(side) + 1, EXACT):
        raise AssertionError(f"rows {subset} passed the MDS kernel, but "
                             f"distance() reads {dist}")
    return subset, n - k + 1


def _mds_subsets(ctx: gf.FieldCtx, rows: Sequence[Sequence[int]], k: int
                 ) -> Iterator[tuple[tuple[int, ...], bool]]:
    """(S, whether the rows in S span an MDS code) for every k-subset S of
    the rows of an orthogonal n x n matrix, in combinations order, drawn
    lazily: the search kernel.

    A A^T = I, so the rows outside S span the dual of the code of S, and
    the dual of an MDS code is MDS (MacWilliams and Sloane 1977, ch. 11):
    each S is decided on the side R with fewer rows, S when k <= n - k and
    else its complement, by _every_column_subset_independent: R spans an
    MDS code exactly when every |R| of its columns are independent.  An
    empty R (k = n) always does."""
    n = len(rows)
    complement = k > n - k
    for subset in combinations(range(n), k):
        side = ([rows[i] for i in range(n) if i not in subset] if complement
                else [rows[i] for i in subset])
        yield subset, not side or _every_column_subset_independent(ctx, side)


def _trial_seed(seed: int, trial: int) -> int:
    """The sampler seed of one search trial."""
    return seed * 1_000_003 + trial


# ---------------------------------------------------------------------------
# provenance replay

def _is_int_list(v, length: Optional[int] = None) -> bool:
    return (isinstance(v, list) and all(_is_int(x) for x in v)
            and (length is None or len(v) == length))


_ABSENT = object()              # a provenance field that is not there


def _optional(check):
    """check, but also passing a field that is absent or null."""
    return lambda v: v is _ABSENT or v is None or check(v)


# the rows and the twist that a sampled record names
_ROW_FIELDS = {
    "row_indices": _is_int_list,
    "lambdas": _optional(_is_int_list),
    "blocks": _optional(lambda v: isinstance(v, list) and all(
        _is_int_list(b, 2) for b in v)),
}
_TRIAL_FIELDS = {"seed": _is_int, "trial": lambda v: _is_int(v) and v >= 0}

# what replay_record reads from the provenance of each kind built above;
# "search" and "rows" records name a random walk, which only replays them
_PROVENANCE_FIELDS = {
    "uniform": {**_TRIAL_FIELDS, **_ROW_FIELDS},
    "search": {**_TRIAL_FIELDS, "walk_length": _is_int, **_ROW_FIELDS},
    "rows": {"walk_seed": _is_int, "walk_length": _is_int, **_ROW_FIELDS},
    "extended": {"base": _is_str, "pair": lambda v: _is_int_list(v, 2),
                 "lambdas": _is_int_list,
                 "added_row": lambda v: v is None or _is_int_list(v, 2)},
    "matrix_product": {"components": lambda v: isinstance(v, list) and all(
                           map(_is_str, v)),
                       "a_bar": _is_str},
    "projection": {"source": _is_str, "basis": _is_int_list},
    "rs_lemma3": {"n": _is_int, "k": _is_int, "k_prime": _is_int},
}


def replay_record(record: CodeRecord) -> MatrixFq:
    """Rebuild a record's generator matrix from its provenance alone.
    The result must equal record.generator() byte for byte."""
    prov = record.provenance
    kind = prov.get("kind")
    ctx = gf.parse_field(record.field)
    fields = _PROVENANCE_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ParseError(f"unknown provenance kind {kind!r}")
    wrong = [name for name, ok in fields.items()
             if not ok(prov.get(name, _ABSENT))]
    if wrong:
        raise ParseError(f"{kind} provenance fields missing or of the wrong "
                         f"type {wrong}")
    if kind in ("uniform", "search", "rows"):
        rows = prov["row_indices"]
        if not (all(0 <= i < record.n for i in rows)
                and len(set(rows)) == len(rows) == record.k):
            raise ParseError(f"{kind} provenance needs {record.k} distinct "
                             f"row_indices below {record.n}")
        if kind == "uniform":
            A = orthogen.random_orthogonal(
                ctx, record.n, _trial_seed(prov["seed"], prov["trial"]))
        else:
            walk_seed = (prov["walk_seed"] if kind == "rows"
                         else _trial_seed(prov["seed"], prov["trial"]))
            A = orthogen.random_walk(orthogen.generator_set(ctx, record.n),
                                     prov["walk_length"], walk_seed)
        lam = prov.get("lambdas")
        return _twist(A.take_rows(rows),
                      _elements(ctx, lam, "lambda") if lam else None,
                      prov.get("blocks") or None)
    if kind == "extended":
        base = LinearCode.from_basis(MatrixFq.from_text(prov["base"]),
                                     verify_rank=False)
        ext = extend_by_two(base, prov["lambdas"], prov["pair"])
        if prov["added_row"] is not None:
            s, t = _elements(ext.ctx, prov["added_row"], "added row entry")
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
    C = cyclic_mds_self_orthogonal(ctx, prov["n"], prov["k"])
    return mds_lcd_from_self_orthogonal(C, prov["k_prime"]).G
