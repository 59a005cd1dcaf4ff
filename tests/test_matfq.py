"""Exact matrix algebra: hand-checked products, rref, duality plumbing."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdkit import MatrixFq, field_create, parse_field
from lcdkit.errors import LcdError, ParseError, ShapeMismatch, Singular
from lcdkit.fixtures import product_example

from conftest import random_matrix, wide_orders


def test_product_against_hand_computation():
    F7 = field_create(7)
    A = MatrixFq.from_rows(F7, [[1, 2], [3, 4]])
    B = MatrixFq.from_rows(F7, [[5, 6], [1, 0]])
    # row 0: (1*5+2*1, 1*6+2*0) = (0, 6); row 1: (3*5+4*1, 3*6+4*0) = (5, 4)
    assert (A @ B).rows() == [(0, 6), (5, 4)]
    with pytest.raises(ShapeMismatch):
        A @ MatrixFq.from_rows(F7, [[1, 2]])


def test_identity_and_permutation():
    F5 = field_create(5)
    I = MatrixFq.identity(F5, 3)
    P = MatrixFq.permutation(F5, [2, 0, 1])
    x = MatrixFq.from_rows(F5, [[1, 2, 3]])
    assert (x @ I) == x
    # right action by P moves entry i to column sigma(i)
    assert (x @ P).rows() == [(2, 3, 1)]
    assert P.is_orthogonal()


def test_rref_and_rank():
    F3 = field_create(3)
    M = MatrixFq.from_rows(F3, [[1, 2, 0, 1],
                                [2, 1, 0, 2],
                                [0, 0, 1, 1]])
    red, pivots = M.rref()
    assert pivots == (0, 2)        # row 2 = 2 * row 1
    assert red.rows()[0][0] == 1
    assert M.rank() == 2


def test_det_and_inverse():
    F4 = field_create(2, 2)
    M = MatrixFq.from_rows(F4, [[1, 2], [2, 1]])
    assert M.det() == 2            # 1*1 - 2*2 = 1 + 3 = 2
    assert (M @ M.inverse()) == MatrixFq.identity(F4, 2)
    singular = MatrixFq.from_rows(F4, [[1, 2], [3, 1]])
    assert singular.det() == 0
    with pytest.raises(Singular):
        singular.inverse()


def test_nullspace_annihilates():
    rng = random.Random(5)
    F5 = field_create(5)
    for _ in range(20):
        M = random_matrix(F5, 3, 6, rng)
        N = M.nullspace()
        assert N.r == 6 - M.rank()
        if N.r:
            assert (N @ M.transpose()).is_zero()


def test_gram_and_orthogonality():
    ex = product_example()
    base = ex["base"]
    assert base.gram() == MatrixFq.identity(base.ctx, 4)
    assert base.is_orthogonal()
    tweaked = base.scale_rows([2, 1, 1, 1])
    assert not tweaked.is_orthogonal()


@pytest.mark.parametrize("desc", ["2", "7", "9", "16", "8/2", "1031"])
def test_gram_equals_product_with_transpose(desc):
    # gram fills the upper triangle and mirrors it; the product is the
    # oracle.  1031 lies above the table cap, so its tables() rows are
    # computed on access
    ctx = parse_field(desc)
    rng = random.Random(f"gram:{desc}")
    for r in range(7):
        for c in range(1, 10):
            M = MatrixFq(ctx, r, c, [rng.randrange(ctx.q)
                                     for _ in range(r * c)])
            assert M.gram() == M @ M.transpose()


def test_text_round_trip():
    rng = random.Random(9)
    for desc, p, m in (("7", 7, 1), ("2^2", 2, 2)):
        ctx = field_create(p, m)
        M = random_matrix(ctx, 3, 5, rng)
        again = MatrixFq.from_text(M.to_text())
        assert again == M
        assert again.ctx.descriptor == desc
    with pytest.raises(ParseError):
        MatrixFq.from_text("7 2 2\n1 2\n")
    with pytest.raises(ParseError):
        MatrixFq.from_text("")


# Degrees stay small: building GF(p^m) searches for a modulus of degree m.
_descriptors = st.one_of(
    wide_orders.map(str),
    st.builds("{}^{}".format, wide_orders, st.integers(-2, 4)),
    st.builds("{}/{}".format, st.integers(-1, 1 << 12),
              st.sampled_from(["2", "3", "4", "2^2", "5", "x"])),
    st.builds("{}^{}/{}".format, wide_orders, st.integers(-1, 3),
              st.sampled_from(["2", "3", "4", "5"])),
    st.sampled_from(["", "/", "^", "2^", "^2", "a", "2^x", "3/3/3"]),
)
_tokens = st.one_of(st.integers(-3, 40).map(str),
                    st.sampled_from(["x", "1.5", "-", "\u0663", "9" * 5000]))


@settings(max_examples=300, deadline=None)
@given(_descriptors, st.integers(-1, 3), st.integers(-1, 3),
       st.lists(st.lists(_tokens, max_size=4), max_size=4),
       st.sampled_from(["{d} {r} {c}", "{d} {r}", "{d} {r} {c} 0", "{d}"]))
@example("2^0", 1, 1, [["1"]], "{d} {r} {c}")
@example("4/4", 1, 1, [["1"]], "{d} {r} {c}")
@example("2", 0, 3, [], "{d} {r} {c}")
@example("", 2, 0, [], "{d} {r} {c} 0")
@example(str((1 << 61) - 1), 1, 1, [["5"]], "{d} {r} {c}")
@example(str(3317044064679887385961997), 1, 1, [["5"]], "{d} {r} {c}")
@example("2617860789112463^3", 1, 1, [["5"]], "{d} {r} {c}")
@example("1000003^4", 1, 1, [["5"]], "{d} {r} {c}")
def test_matrix_text_fuzz(desc, r, c, rows, header):
    head = header.format(d=desc, r=r, c=c)
    text = "\n".join([head] + [" ".join(row) for row in rows])
    try:
        M = MatrixFq.from_text(text)
    except LcdError:
        return
    # only a full header parses, and its sizes survive the round trip; an
    # empty descriptor moves every later header token one place left
    _, hr, hc = head.split()
    assert (M.r, M.c) == (int(hr), int(hc))
    assert M.to_text().split("\n", 1)[0] == f"{M.ctx.descriptor} {hr} {hc}"
    assert MatrixFq.from_text(M.to_text()) == M


def test_stack_take_drop():
    F2 = field_create(2)
    A = MatrixFq.from_rows(F2, [[1, 0], [0, 1]])
    B = MatrixFq.from_rows(F2, [[1, 1]])
    v = A.vstack(B)
    assert v.r == 3 and v.rows()[2] == (1, 1)
    h = A.hstack(A)
    assert h.c == 4
    assert v.take_rows([2]).rows() == [(1, 1)]
    assert h.take_cols([0, 3]).rows() == [(1, 0), (0, 1)]


def test_matrix_hashing_value_semantics():
    F3 = field_create(3)
    A = MatrixFq.from_rows(F3, [[1, 2], [0, 1]])
    B = MatrixFq.from_rows(F3, [[1, 2], [0, 1]])
    assert A == B and hash(A) == hash(B)
    assert len({A, B}) == 1


# -- the elimination kernel against independent oracles ------------------------
#
# rref, det and nullspace all run through one row-list kernel in gf.  The
# oracles below share none of its code: the Leibniz sum for det, and spans
# and annihilators enumerated vector by vector for rank, rref and
# nullspace.  GF(1031) is large: its cases keep q^rank and q^c small by
# building rank-one matrices.

# field -> (largest column count, largest rank built)
KERNEL_CASES = {"2": (6, 4), "3": (5, 4), "4": (4, 4), "9": (3, 3),
                "27/3": (3, 2), "1031": (3, 1)}


def _low_rank(ctx, r, c, t, rng):
    """r x c matrix of rank at most t: a random r x t times a random t x c."""
    if t == 0:
        return MatrixFq.zeros(ctx, r, c)
    return random_matrix(ctx, r, t, rng) @ random_matrix(ctx, t, c, rng)


def _kernel_matrices(desc, seed):
    ctx = parse_field(desc)
    c_max, t_max = KERNEL_CASES[desc]
    rng = random.Random(seed)
    for _ in range(80):
        r, c = rng.randrange(1, 5), rng.randrange(1, c_max + 1)
        yield _low_rank(ctx, r, c, rng.randrange(0, min(r, c, t_max) + 1),
                        rng)


def _span(ctx, rows, c):
    """Every linear combination of rows, grown one row at a time: a row
    already in the span adds nothing, any other multiplies it by q."""
    span = {(0,) * c}
    for row in rows:
        if tuple(row) in span:
            continue
        span = {tuple(ctx.add(v, ctx.mul(s, w)) for v, w in zip(vec, row))
                for vec in span for s in range(ctx.q)}
    return span


def _dot(ctx, u, v):
    s = 0
    for a, b in zip(u, v):
        s = ctx.add(s, ctx.mul(a, b))
    return s


def _leibniz_det(ctx, M):
    total = 0
    for sigma in itertools.permutations(range(M.r)):
        inversions = sum(1 for i, j in itertools.combinations(range(M.r), 2)
                         if sigma[i] > sigma[j])
        term = 1
        for i, s in enumerate(sigma):
            term = ctx.mul(term, M[i, s])
        total = ctx.sub(total, term) if inversions % 2 else ctx.add(total,
                                                                    term)
    return total


@pytest.mark.parametrize("desc", list(KERNEL_CASES))
def test_det_matches_leibniz_sum(desc):
    ctx = parse_field(desc)
    rng = random.Random(71)
    seen_zero = seen_nonzero = 0
    for _ in range(60):
        n = rng.randrange(1, 5)
        M = (random_matrix(ctx, n, n, rng) if rng.random() < 0.7
             else _low_rank(ctx, n, n, rng.randrange(0, n), rng))
        want = _leibniz_det(ctx, M)
        assert M.det() == want
        seen_zero += want == 0
        seen_nonzero += want != 0
    assert seen_zero and seen_nonzero


@pytest.mark.parametrize("desc", list(KERNEL_CASES))
def test_rank_and_rref_match_the_enumerated_span(desc):
    ctx = parse_field(desc)
    for M in _kernel_matrices(desc, 72):
        span = _span(ctx, M.rows(), M.c)
        assert len(span) == ctx.q ** M.rank()
        red, pivots = M.rref()
        assert (red.r, red.c) == (M.r, M.c)
        rows = red.rows()
        assert all(not any(row) for row in rows[len(pivots):])
        for i, p in enumerate(pivots):
            assert rows[i][:p] == (0,) * p and rows[i][p] == 1
            assert [row[p] for row in rows] == [int(j == i)
                                                for j in range(M.r)]
        assert _span(ctx, rows[:len(pivots)], M.c) == span


@pytest.mark.parametrize("desc", list(KERNEL_CASES))
def test_nullspace_matches_brute_force(desc):
    ctx = parse_field(desc)
    for M in _kernel_matrices(desc, 73):
        if ctx.q ** M.c > 1100:
            continue
        rows = M.rows()
        dead = {x for x in itertools.product(range(ctx.q), repeat=M.c)
                if all(_dot(ctx, row, x) == 0 for row in rows)}
        N = M.nullspace()
        assert N.r == M.c - M.rank()
        assert len(dead) == ctx.q ** N.r
        assert _span(ctx, N.rows(), M.c) == dead

