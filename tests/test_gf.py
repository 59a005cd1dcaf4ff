"""Field arithmetic against hand-computed values and the field axioms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdkit import field_create, parse_field, tower_create
from lcdkit.errors import (NotADivisor, NotATower, NotPrime, ParseError,
                           ReducibleModulus)


def test_gf7_tables():
    F7 = field_create(7)
    assert F7.add(3, 5) == 1
    assert F7.mul(3, 5) == 1
    assert F7.neg(2) == 5
    assert F7.inv(3) == 5
    assert F7.power(3, 6) == 1
    assert F7.sub(2, 5) == 4


@pytest.mark.parametrize("desc", ["2", "7", "9", "16"])
def test_tables_below_the_cap_are_lists(desc):
    F = parse_field(desc)
    adds, muls = F.tables()
    assert F.tables() is F.tables()
    assert len(adds) == len(muls) == F.q
    for a in range(F.q):
        assert isinstance(adds[a], list) and isinstance(muls[a], list)
        assert len(adds[a]) == len(muls[a]) == F.q
        for b in range(F.q):
            assert adds[a][b] == F.add(a, b)
            assert muls[a][b] == F.mul(a, b)


@pytest.mark.parametrize("desc", ["1031", "2^11"])
def test_tables_above_the_cap_compute_rows(desc):
    # no q x q table is built here: rows compute their entries on access
    F = parse_field(desc)
    adds, muls = F.tables()
    assert F.tables() is F.tables()
    rng = random.Random(f"tables:{desc}")
    for _ in range(500):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert adds[a][b] == F.add(a, b)
        assert muls[a][b] == F.mul(a, b)


def test_gf4_is_not_z4():
    # x^2 + x + 1: codes 2 and 3 are the two primitive elements
    F4 = parse_field("2^2")
    assert F4.add(2, 2) == 0          # char 2
    assert F4.mul(2, 2) == 3          # x^2 = x + 1
    assert F4.mul(2, 3) == 1          # x(x+1) = x^2 + x = 1
    assert F4.inv(2) == 3
    assert sorted(F4.mul(2, v) for v in range(4)) == [0, 1, 2, 3]


def test_gf9_squares():
    F9 = field_create(3, 2)
    squares = {F9.mul(v, v) for v in range(1, 9)}
    assert len(squares) == 4          # index-2 subgroup
    assert all(F9.is_square(s) for s in squares)
    # -1 is a square in GF(9): 9 % 4 == 1
    assert F9.is_square(F9.neg(1))


def test_tower_gf27_matches_flat_gf27():
    F3 = field_create(3)
    T = tower_create(F3, 3)
    flat = field_create(3, 3)
    assert T.q == flat.q == 27
    for a in range(27):
        for b in range(27):
            assert T.add(a, b) == flat.add(a, b)


def test_parse_field_round_trip():
    for text in ("2", "3", "5^2", "4/2", "27/3"):
        ctx = parse_field(text)
        assert parse_field(ctx.descriptor).q == ctx.q


def test_parse_field_rejects_junk():
    with pytest.raises(ParseError):
        parse_field("6")
    with pytest.raises((ParseError, ValueError)):
        parse_field("banana")
    with pytest.raises(NotPrime):
        field_create(6)


def test_reducible_modulus_rejected():
    F2 = field_create(2)
    with pytest.raises(ReducibleModulus):
        tower_create(F2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.data())
def test_prime_field_axioms(p, data):
    ctx = field_create(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, ctx.neg(a)) == 0
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]), st.data())
def test_extension_field_axioms(pm, data):
    p, m = pm
    ctx = field_create(p, m)
    q = ctx.q
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    if a:
        assert ctx.div(ctx.mul(a, b), a) == b


def test_trace_is_base_linear():
    F2 = field_create(2)
    F8 = tower_create(F2, 3)
    for a in range(8):
        for b in range(8):
            assert (F8.trace_code(F8.add(a, b))
                    == F2.add(F8.trace_code(a), F8.trace_code(b)))
    # trace is onto the base field
    assert {F8.trace_code(a) for a in range(8)} == {0, 1}


def test_trace_needs_tower():
    with pytest.raises(NotATower):
        field_create(5).trace_code(1)


def test_primitive_nth_root():
    F13 = field_create(13)
    z = F13.primitive_nth_root(12)
    seen = {F13.power(z, i) for i in range(12)}
    assert len(seen) == 12
    with pytest.raises(NotADivisor):
        F13.primitive_nth_root(5)


def test_unit_circle_and_isotropic_pairs():
    # q = 5: -1 = 4 = 2^2 is a square, so a^2 + b^2 = 0 has solutions
    F5 = field_create(5)
    iso = F5.isotropic_pair()
    assert iso is not None
    a, b = iso
    assert a and b and F5.add(F5.mul(a, a), F5.mul(b, b)) == 0
    # q = 7: -1 is not a square, no isotropic pair, but a unit circle pair
    F7 = field_create(7)
    assert F7.isotropic_pair() is None
    uc = F7.unit_circle_pair()
    assert uc is not None
    a, b = uc
    assert a and b and F7.add(F7.mul(a, a), F7.mul(b, b)) == 1
    # q = 3, 5: no unit circle pair with both entries nonzero
    assert field_create(3).unit_circle_pair() is None
    assert F5.unit_circle_pair() is None


def test_self_dual_basis_exists_and_checks():
    F2 = field_create(2)
    for ell in (2, 3):
        T = tower_create(F2, ell)
        basis = T.self_dual_basis()
        assert basis is not None
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                want = 1 if i == j else 0
                assert T.trace_code(T.mul(e, f)) == want


def test_self_dual_basis_none_for_gf9_over_gf3():
    # odd extension of odd characteristic has one; even does not
    F3 = field_create(3)
    assert tower_create(F3, 2).self_dual_basis() is None
    assert tower_create(F3, 3).self_dual_basis() is not None


def test_embed_identity_on_codes():
    F2 = field_create(2)
    F4 = tower_create(F2, 2)
    assert [F4.embed(a) for a in range(2)] == [0, 1]


# self_dual_basis is seeded and greedy, so the default basis of `project`
# and of tables 4 and 5 depends on its exact output: these lists pin it
PINNED_SELF_DUAL_BASES = [
    ("4/2", [3, 2]),
    ("8/2", [3, 5, 7]),
    ("27/3", [11, 21, 24]),
    ("16/4", [6, 7]),
]


@pytest.mark.parametrize("desc,basis", PINNED_SELF_DUAL_BASES)
def test_self_dual_basis_pinned(desc, basis):
    assert parse_field(desc).self_dual_basis() == basis


def test_distinguished_elements_are_plain_ints():
    F5, F7, F13 = field_create(5), field_create(7), field_create(13)
    values = [*F7.unit_circle_pair(), *F5.isotropic_pair(),
              F13.primitive_nth_root(4)]
    for desc, _ in PINNED_SELF_DUAL_BASES:
        values += parse_field(desc).self_dual_basis()
    assert all(type(v) is int for v in values)
