import math
import random

import pytest
from hypothesis import strategies as st

from lcdkit import LinearCode, MatrixFq, field_create, tower_create


# field orders for the parser fuzz: up to 2^90, past the largest prime
# is_prime can prove (about 3.3e24); above 2^16 only orders prime to 210,
# so no high power of a small prime comes up (building GF(p^m) searches
# for a modulus of degree m)
wide_orders = st.integers(-2, 1 << 16) | st.integers(1 << 16, 1 << 90).filter(
    lambda v: math.gcd(v, 210) == 1)


@pytest.fixture(scope="session")
def F2():
    return field_create(2)


@pytest.fixture(scope="session")
def F3():
    return field_create(3)


@pytest.fixture(scope="session")
def F4(F2):
    return tower_create(F2, 2)


@pytest.fixture(scope="session")
def F5():
    return field_create(5)


@pytest.fixture(scope="session")
def F7():
    return field_create(7)


@pytest.fixture(scope="session")
def F9(F3):
    return tower_create(F3, 2)


@pytest.fixture(scope="session")
def F11():
    return field_create(11)


@pytest.fixture(scope="session")
def F13():
    return field_create(13)


def random_matrix(ctx, r, c, rng):
    return MatrixFq.from_rows(
        ctx, [[rng.randrange(ctx.q) for _ in range(c)] for _ in range(r)])


def random_code(ctx, n, k, rng):
    """Random [n, k] code; resamples until the rows are independent."""
    while True:
        G = random_matrix(ctx, k, n, rng)
        if G.rank() == k:
            return LinearCode.from_basis(G)


def random_lcd_code(ctx, n, k, rng):
    while True:
        code = random_code(ctx, n, k, rng)
        if code.is_lcd():
            return code


@pytest.fixture
def rng():
    return random.Random(0xC0DE)
