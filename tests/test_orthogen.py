"""Orthogonal generators, closure enumeration, classical group orders."""

import hashlib
import itertools
import random

import pytest

from lcdkit import (MatrixFq, classical_orthogonal_order, field_create,
                    generator_set, group_closure_order, parse_field,
                    random_orthogonal, random_walk)
from lcdkit.cli import main
from lcdkit.errors import DimensionTooSmall, InvalidValue
from lcdkit.fixtures import group_orders
from lcdkit.orthogen import (DEFAULT_CLOSURE_CAP, _Chain,
                             _orthogonal_product, _unit_draws, _words,
                             plane_matrix, spinor_norm, transvection_matrix)


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


def test_plane_matrix_rotation_when_pair_exists():
    for ctx in all_fields():
        pair = ctx.unit_circle_pair()
        if pair is None:
            assert ctx.q in (2, 3, 5)
            continue
        R = plane_matrix(ctx, 4, *pair)
        assert R.is_orthogonal()
        assert R != MatrixFq.identity(ctx, 4)
    with pytest.raises(DimensionTooSmall):
        plane_matrix(field_create(7), 1, 2, 2)


def test_plane_matrix_half_turn():
    F5 = field_create(5)
    H = plane_matrix(F5, 4, F5.neg(1), 0)
    assert H.is_orthogonal()
    assert H @ H == MatrixFq.identity(F5, 4)
    assert H[0, 0] == F5.neg(1) and H[2, 2] == 1


def plane_pair(gens):
    """(a, b) of the plane map [[a,-b],[b,a]], or None without one."""
    P = gens.plane
    return None if P is None else (P[0, 0], P[1, 0])


def test_generator_set_composition():
    # odd q without a unit circle pair gets the half turn
    for ctx in (field_create(3), field_create(5)):
        gens = generator_set(ctx, 4)
        assert gens.plane == plane_matrix(ctx, 4, ctx.neg(1), 0)
        assert plane_pair(gens) == (ctx.neg(1), 0)
    # a unit circle pair gives the rotation instead
    F7 = field_create(7)
    assert plane_pair(generator_set(F7, 4)) == F7.unit_circle_pair()
    # GF(2) has neither
    assert generator_set(field_create(2), 4).plane is None
    # small n: permutations only
    small = generator_set(field_create(3), 3)
    assert small.transvection is None and small.plane is None
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
    ("4", 5, 979200),
]


@pytest.mark.parametrize("field,n,expected", CLOSURES)
def test_closure_orders(field, n, expected):
    gens = generator_set(parse_field(field), n)
    order, complete = group_closure_order(gens)
    assert complete and order == expected


def unbounded_order(gens, cap=DEFAULT_CLOSURE_CAP):
    """Oracle: the chain with no upper bound, run to the end."""
    order = _Chain(gens.ctx, gens.n, cap).run(gens.matrices())
    return (cap, False) if order is None else (order, True)


# the bundled rows the early stop brings into the default run; over
# GF(17) the generators lie in the spinor kernel (see the spinor norm
# test), so they reach |O_4(17)| / 2, not the bundled table's T
LARGE_CLOSURES = [("9", 4, 1036800), ("16", 4, 16711680), ("5", 5, 18720000),
                  ("7", 5, 553190400), ("17", 4, 23970816)]


@pytest.mark.parametrize("field,n,expected", LARGE_CLOSURES)
def test_closure_orders_large(field, n, expected):
    ctx = parse_field(field)
    gens = generator_set(ctx, n)
    assert group_closure_order(gens, cap=1 << 40) == (expected, True)
    t, o = group_orders()[(n, ctx.q)]
    assert o == classical_orthogonal_order(n, ctx.q)
    assert expected == (t if ctx.q != 17 else t // 2)


@pytest.mark.slow
@pytest.mark.parametrize("field,n,expected", LARGE_CLOSURES)
def test_closure_orders_large_unbounded(field, n, expected):
    gens = generator_set(parse_field(field), n)
    assert unbounded_order(gens, cap=1 << 40) == (expected, True)


def reflection(ctx, v, vv):
    """x -> x - 2 (x.v / v.v) v as a matrix, for v.v = vv != 0."""
    c = ctx.mul(2, ctx.inv(vv))
    n = len(v)
    return MatrixFq.from_rows(ctx, [
        [ctx.sub(int(i == j), ctx.mul(c, ctx.mul(v[i], v[j])))
         for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("field", ["17", "25"])
@pytest.mark.parametrize("n", [4, 5])
def test_generators_have_square_spinor_norm(field, n):
    # over GF(17) and GF(25) every generator has square spinor norm (swap
    # 2, n-cycle 2^(n-1), transvection 4, rotation 2(1 - a)), so the
    # group they generate lies in the index-2 spinor kernel of O_n(q)
    ctx = parse_field(field)
    gens = generator_set(ctx, n)
    rng = random.Random(n * ctx.q)
    nonsquare = False
    while not nonsquare:
        v = [rng.randrange(ctx.q) for _ in range(n)]
        vv = 0
        for x in v:
            vv = ctx.add(vv, ctx.mul(x, x))
        if vv == 0:
            continue
        R = reflection(ctx, v, vv)
        assert R.is_orthogonal()
        assert ctx.is_square(ctx.mul(spinor_norm(R), ctx.inv(vv)))
        nonsquare = not ctx.is_square(vv)   # the norm is onto F*/F*^2
    for seed in range(5):                   # and multiplicative
        A = random_orthogonal(ctx, n, seed)
        B = random_orthogonal(ctx, n, seed + 5)
        assert ctx.is_square(ctx.mul(spinor_norm(A @ B),
                                     ctx.mul(spinor_norm(A), spinor_norm(B))))
    matrices = gens.matrices()
    assert [spinor_norm(M) for M in matrices[:2]] == [2, ctx.power(2, n - 1)]
    a = plane_pair(gens)[0]
    assert spinor_norm(gens.transvection) == 1      # 4 up to squares
    assert spinor_norm(gens.plane) == ctx.mul(ctx.power(2, 3),  # 4 2(1-a)
                                              ctx.sub(1, a))
    for M in matrices:
        assert ctx.is_square(spinor_norm(M))


# ---------------------------------------------------------------------------
# oracle: right-multiplication ops on flat n*n entry tuples, one per
# generator, and the step-by-step walk over them

def _perm_op(n, sigma):
    """Right multiply by the matrix with P[i][sigma[i]] = 1, i.e. column j
    of the product is column sigma^-1(j) of the input."""
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i
    gather = tuple(i * n + inv[j] for i in range(n) for j in range(n))
    return lambda state: tuple(state[g] for g in gather)


def _rotation_op(ctx, n, a, b):
    """Right multiply by the rotation block: only columns 0 and 1 move."""
    nb = ctx.neg(b)

    def op(state):
        out = list(state)
        for r in range(0, n * n, n):
            x, y = state[r], state[r + 1]
            out[r] = ctx.add(ctx.mul(x, a), ctx.mul(y, b))
            out[r + 1] = ctx.add(ctx.mul(x, nb), ctx.mul(y, a))
        return tuple(out)

    return op


def _transvection_op(ctx, n, theta):
    """Right multiply by I + theta * ones(4): row i gains theta times the
    sum of its first four entries, on those same four columns."""
    def op(state):
        out = list(state)
        for r in range(0, n * n, n):
            s = 0
            for j in range(4):
                s = ctx.add(s, state[r + j])
            t = ctx.mul(theta, s)
            if t:
                for j in range(4):
                    out[r + j] = ctx.add(state[r + j], t)
        return tuple(out)

    return op


def flat_ops(gens):
    """One op per generator, in the same order as gens.matrices()."""
    ctx, n = gens.ctx, gens.n
    out = [_perm_op(n, (1, 0) + tuple(range(2, n)) if n >= 2 else (0,)),
           _perm_op(n, tuple((i + 1) % n for i in range(n)))]
    if gens.transvection is not None:      # theta = -1/2, or 1 over p = 2
        theta = 1 if ctx.p == 2 else ctx.neg(ctx.inv(2))
        out.append(_transvection_op(ctx, n, theta))
    if gens.plane is not None:
        out.append(_rotation_op(ctx, n, *plane_pair(gens)))
    return out


def flat_walk(gens, walk_length, seed):
    """The walk's entries, one step at a time, with a hand-written
    Fisher-Yates shuffle."""
    n = gens.n
    rng = random.Random(seed)
    extras = flat_ops(gens)[2:]
    state = MatrixFq.identity(gens.ctx, n).entries
    for _ in range(walk_length):
        kind = rng.randrange(1 + len(extras))
        if kind == 0:
            sigma = list(range(n))
            for i in range(n - 1, 0, -1):
                j = rng.randrange(i + 1)
                sigma[i], sigma[j] = sigma[j], sigma[i]
            state = _perm_op(n, tuple(sigma))(state)
        else:
            state = extras[kind - 1](state)
    return state


WALK_FIELDS = ["2", "3", "4", "5", "7", "8", "9", "11", "13", "16", "17",
               "25", "27", "29", "32", "1031", "2048"]


@pytest.mark.parametrize("field", WALK_FIELDS)
def test_walk_matches_flat_oracle(field):
    # n = 9..17 draw shuffle indices of 4 and 5 bits, and 2,000 steps
    # read dozens of the walk's word blocks
    ctx = parse_field(field)
    cases = [(n, walk_length, 20) for n in range(1, 9)
             for walk_length in (0, 1, 2, 5, 64)]
    cases += [(n, walk_length, 2) for n in range(9, 18)
              for walk_length in (1, 64)]
    cases += [(2, 2000, 2), (5, 2000, 1)]
    for n, walk_length, seeds in cases:
        gens = generator_set(ctx, n)
        for seed in range(seeds):
            A = random_walk(gens, walk_length, seed)
            assert A.entries == flat_walk(gens, walk_length, seed)


def test_words_replay_randrange_and_shuffle():
    # _words's bulk words against the rng's own calls, in one
    # mixed stream per seed: randrange(m) reads the top m.bit_length()
    # bits of a word and redraws from m up, and shuffle draws j_i below
    # i + 1 for i = n-1 down to 1
    def randbelow(word, m):
        shift = 32 - m.bit_length()
        r = word() >> shift
        while r >= m:
            r = word() >> shift
        return r

    for seed in range(100):
        rng = random.Random(seed)
        word = _words(random.Random(seed)).__next__
        calls = [(m, kind) for m in range(1, 41) for kind in (0, 1)]
        random.Random(-seed).shuffle(calls)
        for m, kind in calls:
            if kind:
                assert randbelow(word, m) == rng.randrange(m)
                continue
            want, got = list(range(m)), list(range(m))
            rng.shuffle(want)
            for i in range(m - 1, 0, -1):
                j = randbelow(word, i + 1)
                got[i], got[j] = got[j], got[i]
            assert got == want
        assert word() == rng.getrandbits(32)


def test_walk_rejects_a_negative_length():
    gens = generator_set(field_create(5), 4)
    assert random_walk(gens, 0, 1) == MatrixFq.identity(gens.ctx, 4)
    for walk_length in (-1, -3):
        with pytest.raises(InvalidValue):
            random_walk(gens, walk_length, 1)


def test_walk_with_one_coordinate(capsys):
    # a unit-circle pair exists over GF(7), but no rotation fits in n = 1
    gens = generator_set(field_create(7), 1)
    assert field_create(7).unit_circle_pair() is not None
    assert gens.plane is None
    for seed in range(5):
        assert random_walk(gens, 64, seed).rows() == [(1,)]
    # the uniform sampler draws O_1(7) = {1, -1}
    assert {random_orthogonal(field_create(7), 1, seed).rows()[0]
            for seed in range(20)} == {(1,), (6,)}
    assert main(["sample", "--field", "7", "--n", "1"]) == 0
    assert capsys.readouterr().out == random_orthogonal(
        field_create(7), 1, 0).to_text()
    assert main(["search", "--field", "7", "--n", "1", "--k", "1",
                 "--target-d", "1"]) == 0


# SHA-256 of matrices() and of three walks at n = 1, 2, 4 and 5, with the
# values of the generator set that kept the rotation and the half turn in
# separate slots; a change here moves every search record and replay
PINNED_GENERATORS = {
    "2": "6f542293902e1dbcf092a0d3050e4d5579f211dc52976876ea663e6794b9523f",
    "3": "6cbfe3837ca3182d7d1a6c8c718e502428d0c912d7c652a31c06cdfc339344af",
    "5": "e88df81bcda82bd8403d6cc81978f3ee6b0b697c0155a72db65fb9d596460061",
    "7": "cf1d96155c5997b8721729aa66421c2cab9ee102a08e632a11c8250052dcf1e8",
    "16": "f7e7baf6a0ebc79b2ecc8284cb6759d7e9583267e82ba32eea5a3ba7eae73edc",
    "25": "c2464f87a95560b7dd02b5bf14af74e9f486de76c552b3aa817a8004a8d95e47",
}


@pytest.mark.parametrize("field,digest", PINNED_GENERATORS.items())
def test_generators_and_walks_pinned(field, digest):
    ctx = parse_field(field)
    data = []
    for n in (1, 2, 4, 5):
        gens = generator_set(ctx, n)
        data.append([M.entries for M in gens.matrices()])
        data.append([random_walk(gens, 64, seed).entries
                     for seed in range(3)])
    assert hashlib.sha256(repr(data).encode()).hexdigest() == digest


def flat_group(gens, cap):
    """Oracle: BFS over flat n*n entry tuples through the flat ops; the
    group's elements, or None once there are more than cap."""
    ops = flat_ops(gens)
    ident = MatrixFq.identity(gens.ctx, gens.n).entries
    pack = bytes if gens.ctx.q <= 0x100 else tuple
    seen = {pack(ident)}
    elements = [ident]
    for state in elements:              # the list is the BFS queue
        for op in ops:
            nxt = op(state)
            key = pack(nxt)
            if key not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(key)
                elements.append(nxt)
    return elements


def flat_closure_order(gens, cap):
    """The flat BFS order, with the same cap semantics as the chain."""
    elements = flat_group(gens, cap)
    return (cap, False) if elements is None else (len(elements), True)


SMALL_ORDER = 10 ** 4


def check_against_flat_bfs(gens):
    order, complete = flat_closure_order(gens, SMALL_ORDER)
    if not complete:
        assert group_closure_order(gens, SMALL_ORDER) == (SMALL_ORDER, False)
        return
    assert group_closure_order(gens) == (order, True)
    for cap in (1, gens.n - 1, order - 1, order, order + 1):
        assert group_closure_order(gens, cap) == flat_closure_order(gens, cap)


@pytest.mark.parametrize("field", ["2", "3", "4", "5", "7", "8", "9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closure_matches_flat_bfs(field, n):
    check_against_flat_bfs(generator_set(parse_field(field), n))


@pytest.mark.parametrize("field,order", [("1031", 688), ("2048", 4)])
def test_closure_matches_flat_bfs_untabled(field, order):
    # above 2^10 elements the chain works through ctx.add/ctx.mul
    gens = generator_set(parse_field(field), 2)
    assert flat_closure_order(gens, SMALL_ORDER) == (order, True)
    check_against_flat_bfs(gens)


def level0_orbit(gens, cap):
    """The chain's level-0 orbit from the generators alone, or None once
    it has more than cap vectors."""
    chain = _Chain(gens.ctx, gens.n, cap)
    if not chain.start(gens.matrices()):
        assert len(chain.pts[0]) == cap      # gave up at vector cap + 1
        return None
    return chain


@pytest.mark.parametrize("field", ["2", "3", "4", "5", "7", "8", "9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_row_orbit_is_a_unit_norm_permutation_action(field, n):
    # level 0 of the chain: the orbit of e_0, which holds every unit row
    # (the n-cycle is a generator), with its Schreier tree
    ctx = parse_field(field)
    gens = generator_set(ctx, n)
    chain = level0_orbit(gens, SMALL_ORDER)
    vecs = chain.pts[0]
    units = MatrixFq.identity(ctx, n).rows()
    assert vecs[0] == units[0] and set(units) <= set(vecs)
    assert len(set(vecs)) == len(vecs)
    assert all(len(p) == 1 for p in chain.pts[1:])
    # the guard gives up exactly when a vector past the cap turns up
    assert level0_orbit(gens, len(vecs)).pts[0] == vecs
    if len(vecs) > 1:
        assert level0_orbit(gens, len(vecs) - 1) is None
    for v in vecs:
        norm = 0
        for x in v:
            norm = ctx.add(norm, ctx.mul(x, x))
        assert norm == 1
    for M in gens.matrices():
        images = [(MatrixFq(ctx, 1, n, v) @ M).entries for v in vecs]
        assert sorted(images) == sorted(vecs)
    # each transversal element is orthogonal and sends e_0 to its point
    for j in range(0, len(vecs), -(-len(vecs) // 200)):
        rows = chain._u(0, j)[0]
        assert rows[0] == vecs[j]
        assert MatrixFq.from_rows(ctx, rows).is_orthogonal()


def test_closure_orbit_guard():
    # the orbit of the GF(16)^7 unit rows has far more than 1000 vectors,
    # so the call gives up while it builds the level-0 orbit
    gens = generator_set(field_create(2, 4), 7)
    assert level0_orbit(gens, 1000) is None
    assert group_closure_order(gens, cap=1000) == (1000, False)


# the early stop against the unbounded chain: every (field, n) below,
# at each cap and, for a complete order o, at caps o - 1, o and o + 1;
# above 2^10 elements the chain works through ctx.add/ctx.mul, so the
# untabled fields stay at small caps
TABLED_CAPS = (1, 10, 1000, 10 ** 6, 1 << 30)
UNTABLED_CAPS = (1, 10, 100, 1000, 10 ** 4)
TIER1_GRID = ([(f, n) for f in ("2", "3", "4", "5", "7", "8", "9")
               for n in (1, 2, 3, 4) if (f, n) not in (("8", 4), ("9", 4))]
              + [("2", 5), ("3", 5)]
              + [(f, n) for f in ("1031", "2048") for n in (1, 2)])
SLOW_GRID = ([("8", 4), ("9", 4)]
             + [(f, 5) for f in ("4", "5", "7", "8", "9")]
             + [(f, n) for f in ("11", "13", "16") for n in (1, 2, 3, 4, 5)]
             + [(f, n) for f in ("1031", "2048") for n in (3, 4, 5)])


def check_against_unbounded(gens):
    caps = UNTABLED_CAPS if gens.ctx.q > 1 << 10 else TABLED_CAPS
    for cap in caps:
        expected = unbounded_order(gens, cap)
        assert group_closure_order(gens, cap) == expected, cap
    order, complete = expected
    for cap in (order - 1, order, order + 1) if complete else ():
        if cap >= 1:
            assert group_closure_order(gens, cap) == unbounded_order(
                gens, cap), cap


@pytest.mark.parametrize("field,n", TIER1_GRID)
def test_early_stop_matches_unbounded_chain(field, n):
    check_against_unbounded(generator_set(parse_field(field), n))


@pytest.mark.slow
@pytest.mark.parametrize("field,n", SLOW_GRID)
def test_early_stop_matches_unbounded_chain_slow(field, n):
    check_against_unbounded(generator_set(parse_field(field), n))


@pytest.mark.parametrize("field,bounds", [
    # bounds for n = 1..5: |O_n(q)|, halved for n >= 2 over GF(17) and
    # GF(25), where every generator has square spinor norm; at n = 1 the
    # norm of -1 is 1, a square, so the spinor kernel is all of O_1(q)
    ("3", (2, 8, 48, 1152, 103680)),
    ("4", (1, 4, 60, 3840, 979200)),
    ("7", (2, 16, 672, 225792, 553190400)),
    ("17", (2, 16, 4896, 23970816, 2008994088960)),
    ("25", (2, 24, 15600, 243360000, 95214600000000)),
])
def test_order_bound(field, bounds):
    ctx = parse_field(field)
    halved = ctx.q in (17, 25)
    for n, bound in enumerate(bounds, 1):
        gens = generator_set(ctx, n)
        assert gens._order_bound == bound
        o = classical_orthogonal_order(n, ctx.q)
        assert bound == (o // 2 if halved and n >= 2 else o)


def test_chain_stops_where_the_bounds_meet():
    # O(4,7) is all of O_4(7), so the bounded chain stops with Schreier
    # generators left unsifted, while the unbounded one sifts them all
    gens = generator_set(parse_field("7"), 4)
    bounded = _Chain(gens.ctx, 4, DEFAULT_CLOSURE_CAP, gens._order_bound)
    full = _Chain(gens.ctx, 4, DEFAULT_CLOSURE_CAP)
    assert bounded.run(gens.matrices()) == full.run(gens.matrices()) == 225792

    def unsifted(chain):
        return sum(len(p) - d for p, done in zip(chain.pts, chain.done)
                   for d in done)
    assert unsifted(full) == 0 < unsifted(bounded)


# proper subgroups of O_n(q), so by Cartan-Dieudonne some reflection lies
# outside each; the chain runs its whole deterministic pass on them
PROPER_SUBGROUPS = [("3", 4, 384), ("5", 4, 384), ("3", 3, 6), ("5", 3, 6)]


@pytest.mark.parametrize("field,n,order", PROPER_SUBGROUPS)
def test_completed_chain_is_an_exact_membership_test(field, n, order):
    ctx = parse_field(field)
    gens = generator_set(ctx, n)
    chain = _Chain(ctx, n, DEFAULT_CLOSURE_CAP, gens._order_bound)
    assert chain.run(gens.matrices()) == order
    elements = flat_group(gens, SMALL_ORDER)
    assert len(elements) == order
    matrices = [MatrixFq(ctx, n, n, e) for e in elements]
    for x in matrices:
        assert chain._sift(list(x.rows()), 0) is None
    group = set(elements)
    for v in itertools.product(range(ctx.p), repeat=n):
        vv = sum(a * a for a in v) % ctx.p          # q = p here
        if vv and reflection(ctx, v, vv).entries not in group:
            r = reflection(ctx, v, vv)
            break
    assert r.is_orthogonal()
    for x in matrices:
        assert chain._sift(list((x @ r).rows()), 0) is not None


def generated(ctx, n, matrices):
    """Oracle: the group the matrices generate, by BFS over MatrixFq."""
    ident = MatrixFq.identity(ctx, n)
    seen = {ident.entries}
    elements = [ident]
    for x in elements:
        for M in matrices:
            y = x @ M
            if y.entries not in seen:
                seen.add(y.entries)
                elements.append(y)
    return elements


@pytest.mark.parametrize("field,n,order",
                         PROPER_SUBGROUPS + [("2", 4, 48), ("7", 3, 672)])
def test_chain_levels_are_a_base_and_strong_generating_set(field, n, order):
    # level l's generators S_l generate a group whose orbit of e_l is the
    # level's points and whose stabilizer of e_l is <S_{l+1}>
    ctx = parse_field(field)
    gens = generator_set(ctx, n)
    chain = _Chain(ctx, n, DEFAULT_CLOSURE_CAP, gens._order_bound)
    assert chain.run(gens.matrices()) == order
    units = chain.units
    groups = [generated(ctx, n, [
        MatrixFq.from_rows(ctx, [g(e) for e in units]) for g in level])
        for level in chain.gens] + [[MatrixFq.identity(ctx, n)]]
    assert len(groups[0]) == order
    for l in range(n):
        assert {x.rows()[l] for x in groups[l]} == set(chain.pts[l])
        assert ({x.entries for x in groups[l] if x.rows()[l] == units[l]}
                == {x.entries for x in groups[l + 1]})


@pytest.mark.parametrize("field,n", [("3", 4), ("5", 4), ("7", 4), ("8", 4),
                                     ("4", 4), ("5", 3), ("2", 3), ("3", 5)])
def test_level_zero_keeps_the_inputs(field, n):
    # a residue found closing level l joins only the levels past l
    gens = generator_set(parse_field(field), n)
    ident = MatrixFq.identity(gens.ctx, n)
    chain = _Chain(gens.ctx, n, DEFAULT_CLOSURE_CAP, gens._order_bound)
    matrices = gens.matrices()
    assert chain.run(matrices) == group_closure_order(gens)[0]
    assert len(chain.gens[0]) == sum(M.entries != ident.entries
                                     for M in matrices)


@pytest.mark.parametrize("field", ["3", "5"])
def test_schreier_sifts_per_closure(field, monkeypatch):
    # O(4,3) and O(4,5) never meet their upper bound, so the chain runs
    # the whole deterministic pass: 137 sifts when a residue found closing
    # level l also joins levels 0..l
    calls = []
    sift = _Chain._sift

    def counted(self, tail, l):
        calls.append(l)
        return sift(self, tail, l)
    monkeypatch.setattr(_Chain, "_sift", counted)
    assert group_closure_order(generator_set(parse_field(field), 4)) == (
        384, True)
    assert len(calls) <= 67


@pytest.mark.parametrize("field,n,bound", [
    ("3", 4, 383),          # below |G| = 384, and no product of orbit sizes
    ("7", 4, 225791),       # below |G| = 225792
    ("2", 3, 5),            # n! = 6 > 5
])
def test_bound_below_the_order_raises(field, n, bound):
    gens = generator_set(parse_field(field), n)
    for cap in (bound, DEFAULT_CLOSURE_CAP):
        with pytest.raises(AssertionError, match="upper bound"):
            _Chain(gens.ctx, n, cap, bound).run(gens.matrices())
    # a cap below the bound still answers (cap, False)
    assert _Chain(gens.ctx, n, bound - 1, bound).run(gens.matrices()) is None


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
    # even q: |Sp(n-1, q)| for odd n, q^(n-1) |Sp(n-2, q)| for even n
    assert classical_orthogonal_order(4, 4) == 3840
    assert classical_orthogonal_order(1, 2) == 1
    assert classical_orthogonal_order(2, 8) == 8
    assert classical_orthogonal_order(3, 4) == 4 * 15
    with pytest.raises(DimensionTooSmall):
        classical_orthogonal_order(0, 3)


def test_classical_matches_bundled_table_for_odd_q():
    for (n, q), (_, o) in group_orders().items():
        if q % 2 == 1:
            assert classical_orthogonal_order(n, q) == o


def test_classical_matches_bundled_table_for_even_q():
    rows = [(n, q, o) for (n, q), (_, o) in group_orders().items()
            if q % 2 == 0]
    assert len(rows) == 6
    for n, q, o in rows:
        assert classical_orthogonal_order(n, q) == o


def brute_orthogonal_count(ctx, n):
    """Oracle: the number of n x n matrices A over GF(q) with A A^T = I,
    row by row over the unit vectors orthogonal to the rows above."""
    def dot(u, v):
        s = 0
        for x, y in zip(u, v):
            s = ctx.add(s, ctx.mul(x, y))
        return s
    vectors = list(itertools.product(range(ctx.q), repeat=n))
    units = [v for v in vectors if dot(v, v) == 1]

    def count(rows):
        if len(rows) == n:
            return 1
        return sum(count(rows + [v]) for v in units
                   if all(dot(v, w) == 0 for w in rows))
    return count([])


@pytest.mark.parametrize("field,n", [(f, n) for f in ("2", "3", "4", "5",
                                                       "7", "8", "9")
                                     for n in (1, 2, 3)]
                         + [("2", 4), ("3", 4)])
def test_classical_matches_brute_count(field, n):
    ctx = parse_field(field)
    assert classical_orthogonal_order(n, ctx.q) == brute_orthogonal_count(
        ctx, n)


def test_random_walk_perm_only_group():
    # n = 3 over GF(3): generators are permutations, so walks stay there
    F3 = field_create(3)
    gens = generator_set(F3, 3)
    assert gens.matrices() == [gens.swap, gens.cycle]
    units = sorted(MatrixFq.identity(F3, 3).rows())
    walks = [random_walk(gens, 50, seed) for seed in range(20)]
    assert all(sorted(A.rows()) == units for A in walks)
    assert len(set(walks)) == 6             # all of S_3


def test_rows_record_replays_above_the_exp_log_cap():
    # over GF(3^13) a step of the walk costs four table-free products,
    # and the plane map's order divides q + 1 = 4 * 398581, so listing
    # its powers took minutes; the matrix is pinned from that version
    from lcdkit import CodeRecord, replay_record
    ctx = parse_field("3^13")
    prov = {"kind": "rows", "walk_seed": 5, "walk_length": 64,
            "row_indices": [3, 0]}
    matrix = ("3^13 2 4\n1451280 709588 1375947 212169\n"
              "330511 910540 1313202 1083063\n")
    rec = CodeRecord(field="3^13", n=4, k=2, d=None, d_status="lower_bound",
                     tag="rows", provenance=prov, matrix=matrix)
    assert replay_record(rec).to_text() == matrix
    gens = generator_set(ctx, 4)
    entries = flat_walk(gens, 64, 5)
    assert MatrixFq(ctx, 4, 4, entries).take_rows([3, 0]).to_text() == matrix


# ---------------------------------------------------------------------------
# the uniform sampler

def dot(ctx, u, v):
    s = 0
    for x, y in zip(u, v):
        s = ctx.add(s, ctx.mul(x, y))
    return s


def unit_orbit(ctx, m):
    """Oracle: the orbit of e_1 in GF(q)^m, by brute force: the unit
    vectors, less the all-ones vector for even q and odd m > 1."""
    return [x for x in itertools.product(range(ctx.q), repeat=m)
            if dot(ctx, x, x) == 1
            and not (ctx.p == 2 and m % 2 and m > 1 and set(x) == {1})]


def all_orthogonal(ctx, n):
    """Every A with A A^T = I, as the product over every tuple of draws."""
    orbits = [unit_orbit(ctx, m) for m in range(n, 0, -1)]
    return [_orthogonal_product(ctx, draws)
            for draws in itertools.product(*orbits)]


@pytest.mark.parametrize("q,n", [(3, 3), (3, 4), (5, 3), (4, 3), (4, 4),
                                 (2, 5), (8, 3), (9, 3), (7, 3)])
def test_product_of_draws_is_a_bijection_onto_O(q, n):
    ctx = parse_field(str(q))
    mats = all_orthogonal(ctx, n)
    assert all(A.is_orthogonal() for A in mats)
    assert len({A.entries for A in mats}) == len(mats) \
        == classical_orthogonal_order(n, q)


@pytest.mark.parametrize("field", ["2", "3", "4", "9", "16", "27", "1031",
                                   "3^13"])
def test_random_orthogonal_samples(field):
    # 3^13 lies above the exp/log cap: roots by Tonelli-Shanks, products
    # and sums computed on access
    ctx = parse_field(field)
    for n in range(1, 9):
        for seed in range(1 if ctx.q > 1 << 20 else 6):
            A = random_orthogonal(ctx, n, seed)
            assert (A.r, A.c) == (n, n) and A.is_orthogonal()
            draws = list(_unit_draws(ctx, n, random.Random(seed)))
            assert [len(v) for v in draws] == list(range(n, 0, -1))
            assert all(dot(ctx, v, v) == 1 for v in draws)
            assert A == _orthogonal_product(ctx, draws)
            assert A.row(0) == draws[0]
    assert random_orthogonal(ctx, 5, 11) == random_orthogonal(ctx, 5, 11)
    with pytest.raises(DimensionTooSmall):
        random_orthogonal(ctx, 0, 1)


def draw_oracle(ctx, n, seed):
    """Oracle: the draws of random_orthogonal(ctx, n, seed), one plain
    rng.randrange(q) per entry and the field's own add, mul, inv and
    sqrt_min: entries x kept when x.x is a nonzero square, scaled to a
    unit vector, and drawn again at the all-ones vector for even q and odd
    length past 1."""
    rng = random.Random(seed)
    out = []
    for m in range(n, 0, -1):
        while True:
            x = [rng.randrange(ctx.q) for _ in range(m)]
            s = dot(ctx, x, x)
            r = ctx.sqrt_min(s) if s else None
            if r is None:
                continue
            v = tuple(ctx.mul(ctx.inv(r), c) for c in x)
            if not (ctx.p == 2 and m % 2 and m > 1 and set(v) == {1}):
                out.append(v)
                break
    return out


@pytest.mark.parametrize("field", ["2", "3", "4", "9", "16", "1031",
                                   "3^13", "2^40"])
def test_draws_read_the_rng_as_randrange_would(field):
    # the draws come from bulk Mersenne Twister words; 2^40 lies past 32
    # bits, where randrange itself is called
    ctx = parse_field(field)
    for n in range(1, 7):
        for seed in range(2 if ctx.q > 1 << 20 else 25):
            draws = list(_unit_draws(ctx, n, random.Random(seed)))
            assert draws == draw_oracle(ctx, n, seed)


def _count_sqrt_min(monkeypatch) -> list:
    """The arguments of every FieldCtx.sqrt_min call from here on."""
    from lcdkit import gf
    sqrt_min, calls = gf.FieldCtx.sqrt_min, []

    def counted(self, a):
        calls.append(a)
        return sqrt_min(self, a)

    monkeypatch.setattr(gf.FieldCtx, "sqrt_min", counted)
    return calls


@pytest.mark.parametrize("desc", ["2", "3", "4", "9", "16", "25", "1031"])
def test_draws_share_one_unit_table_per_field(desc, monkeypatch):
    # 1031 lies above the tables() cap: its muls rows are computed on
    # access, and its unit table is filled on lookup like any other
    from lcdkit import orthogen
    ctx = parse_field(desc)
    want = [_orthogonal_product(ctx, draw_oracle(ctx, 7, seed))
            for seed in range(2)]
    orthogen._unit_tables.cache_clear()
    calls = _count_sqrt_min(monkeypatch)
    squares, scales = orthogen._unit_tables(ctx)
    assert orthogen._unit_tables(ctx)[1] is scales
    assert len(squares) == len(scales) == 0
    for s in range(ctx.q):
        assert squares[s] == ctx.mul(s, s)
        r = ctx.sqrt_min(s) if s else None
        if r is None:
            assert scales[s] is None
        else:
            inverse = ctx.inv(r)
            assert [scales[s][c] for c in range(0, ctx.q, 1 + ctx.q // 50)
                    ] == [ctx.mul(inverse, c)
                          for c in range(0, ctx.q, 1 + ctx.q // 50)]
    assert len(squares) == len(scales) == ctx.q
    # every entry is kept, so the samples only read
    calls.clear()
    for seed in range(2):
        assert random_orthogonal(ctx, 7, seed) == want[seed]
    assert calls == []
    assert ctx.sqrt_min(1) == 1 and calls == [1]        # the spy sees a call


def test_unit_table_keeps_what_a_large_field_sample_looked_up(monkeypatch):
    # over 3^13 a sample fills only the entries it looks up; the same
    # seed again meets the same sums and calls sqrt_min no more
    from lcdkit import orthogen
    ctx = parse_field("3^13")
    want = _orthogonal_product(ctx, draw_oracle(ctx, 4, 5))
    orthogen._unit_tables.cache_clear()
    calls = _count_sqrt_min(monkeypatch)
    squares, scales = orthogen._unit_tables(ctx)
    assert random_orthogonal(ctx, 4, 5) == want
    assert 0 < len(calls) == len(scales) - (0 in scales) <= len(squares)
    assert len(squares) < ctx.q
    for s, scale in scales.items():
        r = ctx.sqrt_min(s) if s else None
        assert (scale is None if r is None
                else scale[7] == ctx.mul(ctx.inv(r), 7))
    calls.clear()
    assert random_orthogonal(ctx, 4, 5) == want
    assert calls == []


@pytest.mark.parametrize("field", ["2", "3", "4", "9", "16", "1031"])
def test_min_weight_gate_matches_the_full_sample(field):
    # None exactly when some row of the full sample weighs less than the
    # gate, and otherwise the same matrix
    ctx = parse_field(field)
    outcomes = set()
    for n in range(1, 8):
        for seed in range(40):
            A = random_orthogonal(ctx, n, seed)
            weights = A.row_weights()
            for w in range(n + 2):
                B = random_orthogonal(ctx, n, seed, min_weight=w)
                light = any(x < w for x in weights)
                assert (B is None) == light
                assert B is None or B == A
                if 0 < w <= n:
                    outcomes.add(light)
    assert outcomes == {False, True}


def test_gate_draws_nothing_past_the_light_row():
    # row i is built from v_1..v_{i+1} alone, so a sample gated out at
    # row i has asked for i + 1 draws
    ctx = field_create(7)
    stops = set()
    for seed in range(200):
        A = random_orthogonal(ctx, 6, seed)
        light = [i for i, w in enumerate(A.row_weights()) if w < 5]
        asked = []

        def counted(draws):
            for v in draws:
                asked.append(v)
                yield v

        B = _orthogonal_product(
            ctx, counted(_unit_draws(ctx, 6, random.Random(seed))), 5)
        if light:
            assert B is None and len(asked) == light[0] + 1
            stops.add(light[0])
        else:
            assert B == A and len(asked) == 6
    assert {0, 1, 2} <= stops


def test_random_orthogonal_spreads_over_O():
    # 2,000 samples of O(3,3), 48 elements: each turns up, none more than
    # twice its share
    ctx = field_create(3)
    counts = {}
    for seed in range(2000):
        key = random_orthogonal(ctx, 3, seed).entries
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 48
    assert max(counts.values()) < 2 * 2000 / 48


def test_search_trials_to_hit_match_the_exact_hit_probability():
    # [4,1,4]_F3: a trial hits when some row of A has full weight.  Over
    # all of O(4,3) that holds for p = 2/3 of the matrices, so trials to
    # a hit are geometric with mean 1/p.  The walk's group, of index 3,
    # reads a mean near 2 here, about 10 standard errors off.
    from lcdkit import search_random_lcd
    ctx = field_create(3)
    hits = sum(any(w == 4 for w in A.row_weights())
               for A in all_orthogonal(ctx, 4))
    p = hits / classical_orthogonal_order(4, 3)
    assert p == 2 / 3
    seeds = 300
    trials = [search_random_lcd(ctx, 4, 1, 4, 1000, seed).provenance["trial"]
              + 1 for seed in range(seeds)]
    se = ((1 - p) / p ** 2 / seeds) ** 0.5
    assert abs(sum(trials) / seeds - 1 / p) < 4 * se
