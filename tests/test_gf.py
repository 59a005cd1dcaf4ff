"""Field arithmetic against hand-computed values and the field axioms."""

import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdkit import FieldCtx, field_create, parse_field, tower_create
from lcdkit.errors import (InvalidValue, NotADivisor, NotATower, NotPrime,
                           ParseError, ReducibleModulus)
from lcdkit.gf import (_pgcd, _poly_irreducible, _ppowmod, _pstrip, is_prime,
                       prime_factors)


def test_gf7_tables():
    F7 = field_create(7)
    assert F7.add(3, 5) == 1
    assert F7.mul(3, 5) == 1
    assert F7.neg(2) == 5
    assert F7.inv(3) == 5
    assert F7.power(3, 6) == 1
    assert F7.sub(2, 5) == 4


@pytest.mark.parametrize("desc", ["2", "7", "9", "16", "27/3", "16/4", "5^2",
                                  "3^3"])
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


@pytest.mark.parametrize("desc", ["3^6", "31^2", "1021", "2^10"])
def test_tables_near_the_cap_match_sampled_pairs(desc):
    F = parse_field(desc)
    adds, muls = F.tables()
    assert len(adds) == len(muls) == F.q
    assert isinstance(adds[-1], list) and isinstance(muls[-1], list)
    rng = random.Random(f"tables:{desc}")
    for _ in range(2000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert adds[a][b] == F.add(a, b)
        assert muls[a][b] == F.mul(a, b)


def test_tables_are_built_without_per_entry_arithmetic(monkeypatch):
    F = field_create(3, 6)  # a fresh context: its tables are not built yet
    calls = {"add": 0, "mul": 0}
    for name in calls:
        def counted(self, a, b, name=name, orig=getattr(FieldCtx, name)):
            calls[name] += 1
            return orig(self, a, b)
        monkeypatch.setattr(FieldCtx, name, counted)
    F.tables()
    assert calls["add"] < F.q and calls["mul"] < F.q


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


def _digit_add(p, a, b, sign=1):
    """a + sign * b on codes read as base-p digit strings, digit by digit."""
    out, place = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + sign * y) % p * place
        place *= p
    return out


def _schoolbook_mul(ctx, a, b):
    """The product of the polynomials whose coefficients are the base-field
    digits of a and b, reduced by ctx.modulus, down the tower to GF(p)."""
    if ctx.base is None:
        return a * b % ctx.p
    base, qb, deg, p = ctx.base, ctx.base.q, ctx.degree, ctx.p
    da = [a // qb ** i % qb for i in range(deg)]
    db = [b // qb ** i % qb for i in range(deg)]
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = _digit_add(p, prod[i + j], _schoolbook_mul(base, x, y))
    for top in range(2 * deg - 2, deg - 1, -1):
        c = prod[top]
        # the modulus is monic, so its last term clears prod[top]
        for j, mj in enumerate(ctx.modulus):
            prod[top - deg + j] = _digit_add(
                p, prod[top - deg + j], _schoolbook_mul(base, c, mj), -1)
    return sum(c * qb ** i for i, c in enumerate(prod[:deg]))


@pytest.mark.parametrize("desc", ["9", "25", "27", "27/3", "16/4", "3^6"])
def test_mul_matches_schoolbook_product(desc):
    F = parse_field(desc)
    rng = random.Random(f"schoolbook:{desc}")
    for _ in range(500):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.mul(a, b) == _schoolbook_mul(F, a, b)


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


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))
    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if trial(n)]
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(1 << 20, 1 << 24)
        assert is_prime(n) == trial(n)


def test_is_prime_past_trial_division():
    # the smallest strong pseudoprimes to the first 1, 4, 5, 9 and 12
    # prime bases, and a Carmichael number
    for n in (2047, 3215031751, 2152302898747, 3825123056546413051,
              318665857834031151167461, 561):
        assert not is_prime(n)
    # Mersenne primes, and products of two of them
    for k in (19, 31, 61):
        assert is_prime(2 ** k - 1)
    for a, b in ((31, 31), (19, 61)):
        assert not is_prime((2 ** a - 1) * (2 ** b - 1))
    # from the Sorenson-Webster bound up, the 13 bases prove nothing
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(InvalidValue):
            is_prime(n)


def trial_factors(n):
    """Distinct prime factors of n by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    return out + [n] if n > 1 else out


def test_prime_factors_match_trial_division():
    assert all(prime_factors(n) == trial_factors(n)
               for n in range(-3, 10 ** 5 + 1))


def test_prime_factors_of_products_of_known_primes():
    # products up to about 2^60 of one to five primes, some repeated, so
    # rho splits parts whose smallest prime is up to about 2^30
    rng = random.Random(1031)
    for _ in range(300):
        primes, n = [], 1
        for _ in range(rng.randrange(1, 6)):
            e = rng.randrange(1, 3)
            room = (61 - n.bit_length()) // e
            if room < 2:
                break
            bits = rng.randrange(2, room + 1)
            p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            while not is_prime(p):
                p += 2
            primes.append(p)
            n *= p ** e
        assert prime_factors(n) == sorted(set(primes)), n


def test_generator_of_a_field_with_a_large_prime_in_q_minus_1():
    # q = 2 r + 1 with r prime: trial division would need r^(1/2) steps
    ctx = parse_field("1125899906846567")
    assert prime_factors(ctx.q - 1) == [2, 562949953423283]
    assert ctx.primitive_nth_root(2) == ctx.q - 1
    assert prime_factors(2 ** 89 - 2) == sorted(
        {2, *trial_factors(2 ** 44 - 1), *trial_factors(2 ** 44 + 1)})
    with pytest.raises(InvalidValue):       # 2^89 - 1 is a prime past it
        prime_factors(3 * (2 ** 89 - 1))


@pytest.mark.parametrize("p,m", [
    (2, 10), (3, 6), (5, 4), (7, 3), (2, 1), (13, 1),
    # 2^20 steps of the table-free product take over a second
    pytest.param(2, 20, marks=pytest.mark.slow)])
def test_exp_log_follow_the_product_chain(p, m):
    # exp[i] = g^i by the table-free product, one step at a time
    ctx = field_create(p, m)
    n = ctx.q - 1
    chain = [1]
    for _ in range(n):
        chain.append(ctx._raw_mul(chain[-1], ctx.g))
    assert chain.pop() == 1 and ctx.exp == chain + chain
    assert ctx.log[0] == -1 and all(ctx.log[v] == i for i, v in enumerate(chain))


@pytest.mark.parametrize("desc", ["16/4", "81/9", "729/9", "625/25",
                                  "256/16", "64/8"])
def test_tower_exp_log_follow_the_product_chain(desc):
    ctx = parse_field(desc)
    v = 1
    for i in range(ctx.q - 1):
        assert ctx.exp[i] == v and ctx.log[v] == i
        v = ctx._raw_mul(v, ctx.g)
    assert v == 1


@pytest.mark.slow
def test_exp_log_of_3_to_the_12():
    # 531,441 elements: one full product per element took 9 to 17 s
    start = time.perf_counter()
    ctx = field_create(3, 12)
    assert time.perf_counter() - start < 6
    assert ctx.exp[ctx.q - 2] == ctx._raw_pow(ctx.g, ctx.q - 2)
    assert sorted(ctx.exp[:ctx.q - 1]) == list(range(1, ctx.q))


def test_parse_field_by_integer_roots():
    mersenne = (1 << 61) - 1
    assert (parse_field(str(mersenne)).p, parse_field(str(mersenne)).m) == (
        mersenne, 1)
    for v, pm in ((8, (2, 3)), (81, (3, 4)), (1031 ** 2, (1031, 2)),
                  (3 ** 40, (3, 40)), (mersenne ** 2, (mersenne, 2))):
        ctx = parse_field(str(v))
        assert (ctx.p, ctx.m) == pm
    for v in (6, 36, 2 ** 10 * 3, mersenne * 3, 1000, 6 ** 5):
        with pytest.raises(ParseError, match="not a prime power"):
            parse_field(str(v))
    with pytest.raises(InvalidValue):
        parse_field(str(2 ** 89 - 1))


def test_field_order_is_capped_before_any_work():
    # the cap is _MR_LIMIT^2, about 1.1e49: 3^102 is below it, 3^103 past
    assert field_create(3, 102).q == 3 ** 102
    start = time.perf_counter()
    for make in (lambda: field_create(3, 103),
                 lambda: field_create(2, 10 ** 20),
                 lambda: tower_create(parse_field("4"), 82),
                 lambda: parse_field("2^99999999999999999999"),
                 lambda: parse_field(str(2 ** 1000)),
                 lambda: parse_field("4^500/4")):
        with pytest.raises(InvalidValue, match="too large"):
            make()
    assert time.perf_counter() - start < 2


def test_reducible_modulus_rejected():
    F2 = field_create(2)
    with pytest.raises(ReducibleModulus):
        tower_create(F2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2


def rabin_irreducible(base, f):
    """Oracle: Rabin's test, x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f)
    = 1 for each prime r | d."""
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


@pytest.mark.parametrize("q,top", [(2, 10), (3, 6), (4, 4), (5, 4), (9, 3)])
def test_ben_or_matches_rabin(q, top):
    # every monic polynomial of degree 0..top over GF(q)
    base = parse_field(str(q))
    for d in range(top + 1):
        for low in itertools.product(range(q), repeat=d):
            f = low + (1,)
            assert _poly_irreducible(base, f) == rabin_irreducible(base, f), f


# default moduli as nonzero terms {exponent: coefficient}, bottom field
# last for towers; they must not move, or every stored code over the
# field would change its element codes
PINNED_MODULI = [
    ("4", [{0: 1, 1: 1, 2: 1}]),
    ("8", [{0: 1, 1: 1, 3: 1}]),
    ("9", [{0: 1, 2: 1}]),
    ("16", [{0: 1, 1: 1, 4: 1}]),
    ("25", [{0: 2, 2: 1}]),
    ("27", [{0: 1, 1: 2, 3: 1}]),
    ("32", [{0: 1, 2: 1, 5: 1}]),
    ("49", [{0: 1, 2: 1}]),
    ("64", [{0: 1, 1: 1, 6: 1}]),
    ("81", [{0: 2, 1: 1, 4: 1}]),
    ("121", [{0: 1, 2: 1}]),
    ("125", [{0: 1, 1: 1, 3: 1}]),
    ("128", [{0: 1, 1: 1, 7: 1}]),
    ("169", [{0: 2, 2: 1}]),
    ("243", [{0: 1, 1: 2, 5: 1}]),
    ("256", [{0: 1, 1: 1, 3: 1, 4: 1, 8: 1}]),
    ("343", [{0: 2, 3: 1}]),
    ("512", [{0: 1, 1: 1, 9: 1}]),
    ("625", [{0: 2, 4: 1}]),
    ("729", [{0: 2, 1: 1, 6: 1}]),
    ("1024", [{0: 1, 3: 1, 10: 1}]),
    ("2048", [{0: 1, 2: 1, 11: 1}]),
    ("2^13", [{0: 1, 1: 1, 3: 1, 4: 1, 13: 1}]),
    ("2^16", [{0: 1, 1: 1, 3: 1, 5: 1, 16: 1}]),
    ("3^9", [{0: 1, 2: 1, 3: 2, 9: 1}]),
    ("5^6", [{0: 2, 1: 1, 6: 1}]),
    ("7^5", [{0: 3, 1: 1, 5: 1}]),
    ("11^4", [{0: 2, 1: 1, 4: 1}]),
    ("13^3", [{0: 2, 3: 1}]),
    ("1031^2", [{0: 1, 2: 1}]),
    ("2^32", [{0: 1, 2: 1, 3: 1, 7: 1, 32: 1}]),
    ("2^64", [{0: 1, 1: 1, 3: 1, 4: 1, 64: 1}]),
    (str(2 ** 80), [{0: 1, 1: 1, 2: 1, 3: 1, 5: 1, 7: 1, 80: 1}]),
    ("16/4", [{0: 2, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}]),
    ("27/3", [{0: 1, 1: 2, 3: 1}]),
    ("81/9", [{0: 4, 2: 1}, {0: 1, 2: 1}]),
    ("64/4", [{0: 2, 3: 1}, {0: 1, 1: 1, 2: 1}]),
    ("64/8", [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 3: 1}]),
    ("256/16", [{0: 8, 1: 1, 2: 1}, {0: 1, 1: 1, 4: 1}]),
    ("625/25", [{0: 5, 2: 1}, {0: 2, 2: 1}]),
    ("1024/32", [{0: 1, 1: 1, 2: 1}, {0: 1, 2: 1, 5: 1}]),
]


@pytest.mark.parametrize("desc,moduli", PINNED_MODULI)
def test_default_modulus_pinned(desc, moduli):
    ctx = parse_field(desc)
    got = []
    while ctx.base is not None:
        got.append({i: c for i, c in enumerate(ctx.modulus) if c})
        ctx = ctx.base
    assert got == moduli


def scanned_modulus(base, d):
    """Oracle: the first irreducible x^d + low(x), every low in order."""
    for t in range(base.q ** d):
        f = tuple(t // base.q ** i % base.q for i in range(d)) + (1,)
        if _poly_irreducible(base, f):
            return f


def test_default_modulus_matches_the_unskipped_scan():
    # the default skips the binomials x^d + c when no degree-d binomial
    # is irreducible: here (p, d) = (3, 4), (5, 3), (7, 4), (2, d), ...
    # The search reads only base and degree, so it runs without the
    # generator and tables a whole field would build.
    for p in filter(is_prime, range(2, 60)):
        base = field_create(p)
        for d in range(2, 7):
            stub = SimpleNamespace(base=base, degree=d)
            assert FieldCtx._default_modulus(stub) == scanned_modulus(base, d)
    # no binomial of these degrees is irreducible, and a Ben-Or test on
    # each of the q (about 10^6 to 10^15) would not finish
    for desc in ("1000037^3", "2617860789112463^3", "1000003^4"):
        start = time.perf_counter()
        assert parse_field(desc).modulus[1] == 1
        assert time.perf_counter() - start < 1


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
        assert ctx.mul(ctx.mul(a, b), ctx.inv(a)) == b


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
    # above the exp/log cap the answers come from Euler's criterion and
    # Tonelli-Shanks, not a scan of every code; -1 is a non-square in both
    for desc, pair in (("3^13", (12, 767067)), ("1048583", (4, 296878))):
        start = time.perf_counter()
        F = parse_field(desc)
        assert F.unit_circle_pair() == pair
        assert F.isotropic_pair() is None and F.sqrt_min(F.neg(1)) is None
        assert time.perf_counter() - start < 1
        a, b = pair
        assert F.add(F.mul(a, a), F.mul(b, b)) == 1
        assert all(F.sqrt_min(F.mul(r, r)) == min(r, F.neg(r))
                   for r in random.Random(desc).sample(range(1, F.q), 50))


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
