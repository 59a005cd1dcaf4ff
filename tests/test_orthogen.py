"""Orthogonal generators, closure enumeration, classical group orders."""

from collections import deque

import pytest

from lcdkit import (MatrixFq, classical_orthogonal_order, field_create,
                    generator_set, group_closure_order, parse_field,
                    random_orthogonal)
from lcdkit.errors import DimensionTooSmall, UnsupportedShape
from lcdkit.fixtures import group_orders
from lcdkit.orthogen import (_row_orbit, half_turn_matrix, rotation_matrix,
                             transvection_matrix)


def all_fields():
    return [field_create(2), field_create(3), field_create(2, 2),
            field_create(5), field_create(7), field_create(2, 3),
            field_create(3, 2)]


def test_transvection_is_orthogonal_involution():
    for ctx in all_fields():
        T = transvection_matrix(ctx, 5)
        assert T.is_orthogonal()
        assert T @ T == MatrixFq.identity(ctx, 5)
        assert T != MatrixFq.identity(ctx, 5)
    with pytest.raises(DimensionTooSmall):
        transvection_matrix(field_create(3), 3)


def test_rotation_matrix_when_pair_exists():
    for ctx in all_fields():
        R = rotation_matrix(ctx, 4)
        if ctx.unit_circle_pair() is None:
            assert R is None
        else:
            assert R.is_orthogonal()
            assert R != MatrixFq.identity(ctx, 4)


def test_half_turn_matrix():
    F5 = field_create(5)
    H = half_turn_matrix(F5, 4)
    assert H.is_orthogonal()
    assert H @ H == MatrixFq.identity(F5, 4)
    assert H[0, 0] == F5.neg(1) and H[2, 2] == 1


def test_generator_set_composition():
    # odd q without a unit circle pair gets the half turn
    gens3 = generator_set(field_create(3), 4)
    assert gens3.rotation is None and gens3.half_turn is not None
    gens5 = generator_set(field_create(5), 4)
    assert gens5.rotation is None and gens5.half_turn is not None
    # a unit circle pair displaces it
    gens7 = generator_set(field_create(7), 4)
    assert gens7.rotation is not None and gens7.half_turn is None
    # characteristic 2 never needs either
    gens2 = generator_set(field_create(2), 4)
    assert gens2.rotation is None and gens2.half_turn is None
    # small n: permutations only
    small = generator_set(field_create(3), 3)
    assert small.transvection is None and small.half_turn is None
    assert len(small.matrices()) == 2
    for ctx in all_fields():
        for M in generator_set(ctx, 5).matrices():
            assert M.is_orthogonal()


CLOSURES = [
    ("3", 4, 384),
    ("4", 4, 3840),
    ("5", 4, 384),
    ("2", 4, 48),
    ("3", 5, 103680),
    ("7", 4, 225792),
    ("8", 4, 258048),
]


@pytest.mark.parametrize("field,n,expected", CLOSURES)
def test_closure_orders(field, n, expected):
    gens = generator_set(parse_field(field), n)
    order, complete = group_closure_order(gens)
    assert complete and order == expected


@pytest.mark.slow
@pytest.mark.parametrize("field,n,expected", [
    ("4", 5, 979200),
])
def test_closure_orders_large(field, n, expected):
    gens = generator_set(parse_field(field), n)
    order, complete = group_closure_order(gens, cap=1 << 21)
    assert complete and order == expected


def flat_closure_order(gens, cap):
    """Oracle: BFS over flat n*n entry tuples through the specialised
    right-multiplication ops, with the same cap semantics."""
    ops = gens.ops()
    ident = MatrixFq.identity(gens.ctx, gens.n).entries
    pack = bytes if gens.ctx.q <= 0x100 else tuple
    seen = {pack(ident)}
    frontier = deque([ident])
    while frontier:
        state = frontier.popleft()
        for op in ops:
            nxt = op(state)
            key = pack(nxt)
            if key not in seen:
                if len(seen) >= cap:
                    return cap, False
                seen.add(key)
                frontier.append(nxt)
    return len(seen), True


SMALL_ORDER = 10 ** 4


@pytest.mark.parametrize("field", ["2", "3", "4", "5", "7", "8", "9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closure_matches_flat_bfs(field, n):
    gens = generator_set(parse_field(field), n)
    order, complete = flat_closure_order(gens, SMALL_ORDER)
    if not complete:
        assert group_closure_order(gens, SMALL_ORDER) == (SMALL_ORDER, False)
        return
    assert group_closure_order(gens) == (order, True)
    for cap in (1, n - 1, order - 1, order, order + 1):
        assert group_closure_order(gens, cap) == flat_closure_order(gens, cap)


@pytest.mark.parametrize("field", ["2", "3", "4", "5", "7", "8", "9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_orbit_is_a_unit_norm_permutation_action(field, n):
    ctx = parse_field(field)
    gens = generator_set(ctx, n)
    vecs, images = _row_orbit(gens, SMALL_ORDER)
    assert vecs[:n] == MatrixFq.identity(ctx, n).rows()
    # the guard gives up exactly when a vector past the cap turns up
    assert _row_orbit(gens, len(vecs))[0] == vecs
    if len(vecs) > n:
        assert _row_orbit(gens, len(vecs) - 1) is None
    for v in vecs:
        norm = 0
        for x in v:
            norm = ctx.add(norm, ctx.mul(x, x))
        assert norm == 1
    for M, table in zip(gens.matrices(), images):
        assert sorted(table) == list(range(len(vecs)))
        for i, v in enumerate(vecs):
            image = MatrixFq(ctx, 1, n, v) @ M
            assert image.entries == vecs[table[i]]


def test_closure_orbit_guard():
    # the orbit of GF(16)^7 unit rows has far more than 1000 vectors, so
    # the call gives up before any BFS state is expanded
    gens = generator_set(field_create(2, 4), 7)
    assert _row_orbit(gens, 1000) is None
    assert group_closure_order(gens, cap=1000) == (1000, False)


def test_closure_cap_semantics():
    gens = generator_set(field_create(5), 4)
    order, complete = group_closure_order(gens, cap=100)
    assert not complete and order == 100


def test_closure_members_are_orthogonal():
    # tiny case: walk the whole group and spot-check membership closure
    gens = generator_set(field_create(2), 3)
    order, complete = group_closure_order(gens)
    assert complete and order == 6     # permutations of 3 coordinates


def test_classical_orders():
    assert classical_orthogonal_order(5, 3) == 103680
    assert classical_orthogonal_order(4, 5) == 28800
    assert classical_orthogonal_order(4, 7) == 225792
    assert classical_orthogonal_order(4, 3) == 1152
    assert classical_orthogonal_order(1, 3) == 2
    assert classical_orthogonal_order(2, 5) == 8
    with pytest.raises(UnsupportedShape):
        classical_orthogonal_order(4, 4)
    with pytest.raises(DimensionTooSmall):
        classical_orthogonal_order(0, 3)


def test_classical_matches_bundled_table_for_odd_q():
    for (n, q), (_, o) in group_orders().items():
        if q % 2 == 1:
            assert classical_orthogonal_order(n, q) == o


def test_random_orthogonal_properties():
    F11 = field_create(11)
    gens = generator_set(F11, 6)
    seen = set()
    for seed in range(40):
        A = random_orthogonal(gens, 64, seed)
        assert A.is_orthogonal()
        seen.add(A)
    assert len(seen) > 30              # walks spread out
    assert random_orthogonal(gens, 64, 7) == random_orthogonal(gens, 64, 7)


def test_random_orthogonal_perm_only_group():
    # n = 3 over GF(3): generators are permutations, so walks stay there
    gens = generator_set(field_create(3), 3)
    A = random_orthogonal(gens, 50, 1)
    assert sorted(A.rows()) == sorted(
        MatrixFq.permutation(field_create(3),
                             [0, 1, 2]).rows()) or all(
        sum(1 for v in row if v) == 1 for row in A.rows())
