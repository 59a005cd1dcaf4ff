"""Construction operations: twists, extensions, products, projection, and
the cyclic pipeline, each against its defining algebraic property."""

import json
import random
from itertools import combinations

import pytest

from lcdkit import orthogen
from lcdkit import (EXACT, CodeRecord, LinearCode, MatrixFq,
                    cyclic_mds_self_orthogonal, parse_field,
                    extend_by_two, extend_dimension, field_create,
                    generator_set, lcd_from_rows, matrix_product_code,
                    matrix_product_generator, mds_lcd_from_self_orthogonal,
                    mplcd_build, project_to_subfield, random_orthogonal,
                    random_walk, replay_record, rs_pipeline, search_random_lcd,
                    systematic_parity_part, tower_create)
from lcdkit.construct import (apply_row_scaling, apply_rotation_blocks,
                              extension_record, product_record,
                              projection_record, rotation_block_diagonal)
from lcdkit.errors import (BlockCountMismatch, ComponentNotLCD,
                           DegenerateBlock, DimensionTooLarge, InvalidValue,
                           LcdError, MixedLengths,
                           NoIsotropicPair, NotADivisor, NotLCD,
                           NotOrthogonal, NotSelfDualBasis, ParseError,
                           RankDeficient, ZeroScalar)
from lcdkit.fixtures import product_example

from conftest import random_code, random_lcd_code

_MISSING = object()                # a provenance field deleted by a test


# -- rows, scaling, rotation blocks -----------------------------------------

def test_lcd_from_rows_gram_is_identity(F7):
    A = random_orthogonal(F7, 5, 4)
    C = lcd_from_rows(A, [0, 2, 4])
    assert C.gram() == MatrixFq.identity(F7, 3)
    assert C.is_lcd()
    with pytest.raises(NotOrthogonal):
        lcd_from_rows(MatrixFq.from_rows(F7, [[1, 1], [0, 1]]), [0])
    with pytest.raises(ValueError):
        lcd_from_rows(A, [0, 0])


def test_row_scaling_keeps_code_and_squares_gram(F5):
    A = random_orthogonal(F5, 4, 1)
    C = lcd_from_rows(A, [0, 1])
    S = apply_row_scaling(C, [2, 3])
    assert S == C                      # same row space
    g = S.gram()
    assert g[0, 0] == F5.mul(2, 2) and g[1, 1] == F5.mul(3, 3)
    assert g[0, 1] == 0
    with pytest.raises(ZeroScalar):
        apply_row_scaling(C, [0, 1])
    with pytest.raises(ValueError):
        apply_row_scaling(C, [1])


def test_rotation_blocks_layout(F7):
    A = random_orthogonal(F7, 6, 2)
    C = apply_rotation_blocks(A, [0, 1, 2, 3, 4], [1] * 5,
                              [(1, 2), (2, 3)])
    assert C.is_lcd() and C.k == 5
    D = rotation_block_diagonal(F7, [(1, 2), (2, 3)], 5)
    assert D[0, 0] == 1 and D[0, 1] == 2 and D[1, 0] == F7.neg(2)
    assert D[4, 4] == 1                # odd k: trailing lone 1
    assert D.det() != 0
    with pytest.raises(BlockCountMismatch):
        apply_rotation_blocks(A, [0, 1, 2, 3], [1] * 4, [(1, 2)])
    with pytest.raises(DegenerateBlock):
        apply_rotation_blocks(A, [0, 1], [1, 1], [(0, 1)])


def test_degenerate_block_isotropic(F13):
    # 5^2 = 25 = -1 mod 13, so (1, 5) is on the isotropic cone
    A = random_orthogonal(F13, 4, 3)
    with pytest.raises(DegenerateBlock):
        apply_rotation_blocks(A, [0, 1], [1, 1], [(1, 5)])


def _valid_blocks(ctx, count, rng):
    """count random (a, b) with a, b nonzero and a^2 + b^2 != 0, through
    the field's own add and mul."""
    blocks = []
    while len(blocks) < count:
        a, b = rng.randrange(1, ctx.q), rng.randrange(1, ctx.q)
        if ctx.add(ctx.mul(a, a), ctx.mul(b, b)):
            blocks.append([a, b])
    return blocks


@pytest.mark.parametrize("desc", ["3", "4", "7", "9", "16", "1031"])
def test_twist_matches_the_block_diagonal_product(desc):
    # rows rotated pair by pair, then scaled, against the k x k product;
    # 1031 lies above the table cap, where table rows are computed
    from lcdkit.construct import _twist
    ctx = parse_field(desc)
    rng = random.Random(f"twist:{desc}")
    for k in range(1, 7):
        for n in (1, k, 7):
            G = MatrixFq(ctx, k, n, [rng.randrange(ctx.q)
                                     for _ in range(k * n)])
            lam = [rng.randrange(1, ctx.q) for _ in range(k)]
            blocks = _valid_blocks(ctx, k // 2, rng)
            rotated = rotation_block_diagonal(ctx, blocks, k) @ G
            assert _twist(G, None, blocks) == rotated
            assert _twist(G, lam, blocks) == rotated.scale_rows(lam)
            assert _twist(G, lam, None) == G.scale_rows(lam)
            assert _twist(G, None, None) == G
        # malformed blocks raise as the block diagonal matrix does
        bad = [blocks + [[1, 1]], [[0, 1]] + blocks[1:],
               [[1, ctx.q]] + blocks[1:], [[1]] + blocks[1:]]
        for blk in bad if k >= 2 else bad[:1]:
            with pytest.raises(LcdError) as want:
                rotation_block_diagonal(ctx, blk, k)
            with pytest.raises(type(want.value)):
                _twist(G, lam, blk)
    with pytest.raises(BlockCountMismatch):
        _twist(G, None, [])
    with pytest.raises(DegenerateBlock):
        _twist(G, None, [[1, 0], [1, 1], [2, 2]])
    isotropic = [[a, b] for a in range(1, min(ctx.q, 50))
                 for b in range(1, min(ctx.q, 50))
                 if ctx.add(ctx.mul(a, a), ctx.mul(b, b)) == 0][:1]
    if isotropic:
        with pytest.raises(DegenerateBlock):
            _twist(G.take_rows([0, 1]), None, isotropic)


# -- two-column extension ----------------------------------------------------

def test_extend_preserves_gram_exactly(F5, rng):
    for trial in range(60):
        A = random_orthogonal(F5, 6, trial)
        k = rng.randrange(1, 6)
        C = lcd_from_rows(A, range(k))
        lam = [rng.randrange(5) for _ in range(k)]  # zeros allowed
        E = extend_by_two(C, lam)
        assert (E.n, E.k) == (C.n + 2, C.k)
        assert E.gram() == C.gram()
        assert E.is_lcd()
        assert E.distance().value >= C.distance().value


def test_extend_rejects_bad_inputs(F5, F7):
    C = lcd_from_rows(MatrixFq.identity(F5, 3), [0, 1])
    with pytest.raises(ValueError):
        extend_by_two(C, [1])               # wrong lambda count
    with pytest.raises(ValueError):
        extend_by_two(C, [1, 1], (1, 1))    # 1 + 1 != 0
    with pytest.raises(NoIsotropicPair):
        extend_by_two(lcd_from_rows(MatrixFq.identity(F7, 3), [0]), [1])
    hull = LinearCode.from_basis(MatrixFq.from_rows(F5, [[1, 2, 0]]))
    with pytest.raises(NotLCD):
        extend_by_two(hull, [1])


def test_values_outside_the_field_raise_invalid_value(F5):
    C = lcd_from_rows(MatrixFq.identity(F5, 3), [0, 1])
    ex = product_example()
    T = tower_create(field_create(2), 2)
    bad_calls = [
        lambda: extend_by_two(C, [1, 9]),             # lambda outside GF(5)
        lambda: extend_by_two(C, [1, 1], (2, 6)),     # pair entry outside
        lambda: extend_by_two(C, [1, 1], (2,)),       # one-entry pair
        lambda: apply_row_scaling(C, [1, -1]),
        lambda: rotation_block_diagonal(F5, [(1,)], 2),
        lambda: rotation_block_diagonal(F5, [(1, 7)], 2),
        lambda: mplcd_build(ex["components"], ex["base"], [1, 13, 1, 1]),
        lambda: project_to_subfield(LinearCode.full(T, 2), [99, 1]),
        lambda: MatrixFq.from_rows(F5, [[1, 5]]),
    ]
    for call in bad_calls:
        with pytest.raises(InvalidValue) as exc:
            call()
        assert isinstance(exc.value, LcdError)
        assert isinstance(exc.value, ValueError)


def test_extend_explicit_pair_row_pattern(F13):
    # 1-indexed odd rows get (lambda a, lambda b), even rows the twist
    C = lcd_from_rows(MatrixFq.identity(F13, 2), [0, 1])
    E = extend_by_two(C, [1, 1], (1, 5))
    rows = E.G.rows()
    assert rows[0][-2:] == (1, 5)
    assert rows[1][-2:] == (F13.neg(5), 1)


def test_extend_dimension_finds_lcd_row(F5, rng):
    hits = 0
    for trial in range(40):
        C = random_lcd_code(F5, 4, rng.randrange(1, 4), rng)
        E = extend_by_two(C, [rng.randrange(5) for _ in range(C.k)])
        grown = extend_dimension(E)
        if grown is None:
            continue
        hits += 1
        assert grown.k == E.k + 1 and grown.n == E.n
        assert grown.is_lcd()
        assert grown.G.rows()[-1][:-2] == (0,) * (E.n - 2)
    assert hits > 20


def test_extend_dimension_disjoint_support(F5):
    # lambda = 0 extension leaves the new columns empty, so any (s, t)
    # with s^2 + t^2 != 0 works; scan must pick one
    C = lcd_from_rows(MatrixFq.identity(F5, 4), [0, 1])
    E = extend_by_two(C, [0, 0])
    grown = extend_dimension(E)
    s, t = grown.G.rows()[-1][-2:]
    assert F5.add(F5.mul(s, s), F5.mul(t, t)) != 0


# -- matrix-product codes -----------------------------------------------------

def test_product_block_layout(F11):
    ex = product_example()
    gen = matrix_product_generator(ex["components"],
                                   ex["base"].scale_rows(ex["scalars"]))
    assert (gen.r, gen.c) == (4, 16)
    a_bar = ex["base"].scale_rows(ex["scalars"])
    g0 = ex["components"][0].G.rows()[0]
    want = []
    for j in range(4):
        want.extend(F11.mul(a_bar[0, j], v) for v in g0)
    assert gen.rows()[0] == tuple(want)


def test_product_identity_is_direct_sum(F3, rng):
    codes = [random_code(F3, 4, 2, rng) for _ in range(3)]
    P = matrix_product_code(codes, MatrixFq.identity(F3, 3))
    assert (P.n, P.k) == (12, 6)
    assert P.distance().value == min(c.distance().value for c in codes)


def test_product_rejects_bad_shapes(F3, F5, rng):
    codes = [random_code(F3, 4, 1, rng), random_code(F3, 5, 1, rng)]
    with pytest.raises(MixedLengths):
        matrix_product_code(codes, MatrixFq.identity(F3, 2))
    rank_deficient = MatrixFq.from_rows(F3, [[1, 2], [2, 1]])
    assert rank_deficient.rank() == 1
    with pytest.raises(RankDeficient):
        matrix_product_code([random_code(F3, 4, 1, rng)] * 2,
                            rank_deficient)


def test_mplcd_biconditional(F7, rng):
    # both directions, orthogonal-like inner matrix
    for trial in range(60):
        base = random_orthogonal(F7, 3, trial)
        lam = [rng.randrange(1, 7) for _ in range(3)]
        comps = [random_lcd_code(F7, 4, rng.randrange(1, 4), rng)
                 for _ in range(3)]
        prod = mplcd_build(comps, base, lam)
        assert prod.is_lcd()
        # swap one component for a non-LCD one: product must fail
        bad = comps[:]
        while True:
            cand = random_code(F7, 4, rng.randrange(1, 4), rng)
            if not cand.is_lcd():
                bad[rng.randrange(3)] = cand
                break
        a_bar = base.scale_rows(lam)
        assert not matrix_product_code(bad, a_bar).is_lcd()


def test_mplcd_error_carries_index(F7, rng):
    base = random_orthogonal(F7, 3, 0)
    comps = [random_lcd_code(F7, 4, 2, rng) for _ in range(3)]
    while True:
        cand = random_code(F7, 4, 2, rng)
        if not cand.is_lcd():
            comps[2] = cand
            break
    with pytest.raises(ComponentNotLCD) as exc:
        mplcd_build(comps, base, [1, 1, 1])
    assert exc.value.index == 2
    with pytest.raises(NotOrthogonal):
        mplcd_build(comps[:1], MatrixFq.from_rows(F7, [[2]]), [1])
    with pytest.raises(ZeroScalar):
        mplcd_build([comps[0]], MatrixFq.identity(F7, 1), [0])


def test_product_duality_identity(F5, rng):
    # dual of the product is the product of the duals through (A^-1)^T
    for trial in range(20):
        A = random_orthogonal(F5, 3, trial + 100)
        codes = [random_code(F5, 4, rng.randrange(1, 4), rng)
                 for _ in range(3)]
        left = matrix_product_code(codes, A).dual()
        right = matrix_product_code([c.dual() for c in codes],
                                    A.inverse().transpose())
        assert left == right


def test_worked_product_example():
    ex = product_example()
    code = mplcd_build(ex["components"], ex["base"], ex["scalars"])
    dist = code.distance()
    exp = ex["expected"]
    assert (code.n, code.k, dist.value) == (exp["n"], exp["k"], exp["d"])
    assert dist.status == EXACT
    assert code.is_lcd() == exp["lcd"]
    assert code.classify() == exp["classification"]


# -- subfield projection ------------------------------------------------------

def towers():
    F2 = field_create(2)
    F3 = field_create(3)
    return [tower_create(F2, 2), tower_create(F2, 3), tower_create(F3, 3)]


def test_projection_shape_and_full_code():
    for T in towers():
        ell = T.degree
        basis = T.self_dual_basis()
        full = LinearCode.full(T, 3)
        P = project_to_subfield(full, basis)
        assert (P.n, P.k) == (3 * ell, 3 * ell)
        assert P.is_lcd()


def test_projection_preserves_lcd_both_ways(rng):
    for T in towers():
        basis = T.self_dual_basis()
        lcd_seen = non_lcd_seen = 0
        for _ in range(60):
            k = rng.randrange(1, 4)
            C = random_code(T, 4, k, rng)
            P = project_to_subfield(C, basis)
            assert P.is_lcd() == C.is_lcd()
            if C.is_lcd():
                lcd_seen += 1
            else:
                non_lcd_seen += 1
        assert lcd_seen and non_lcd_seen   # both directions exercised


def test_projection_rejects_bad_basis(F4):
    C = LinearCode.full(F4, 2)
    with pytest.raises(NotSelfDualBasis):
        project_to_subfield(C, [1, 1])
    with pytest.raises(NotSelfDualBasis):
        project_to_subfield(C, [1])


# -- cyclic pipeline ----------------------------------------------------------

@pytest.mark.parametrize("q,n,k", [(16, 15, 7), (9, 8, 3), (13, 12, 5)])
def test_cyclic_self_orthogonal_mds(q, n, k):
    ctx = field_create(*{16: (2, 4), 9: (3, 2), 13: (13, 1)}[q])
    C = cyclic_mds_self_orthogonal(ctx, n, k)
    assert (C.n, C.k) == (n, k)
    assert C.gram().is_zero()
    d = C.distance()
    assert d.status == EXACT and d.value == n - k + 1


def test_cyclic_rejections(F13):
    with pytest.raises(NotADivisor):
        cyclic_mds_self_orthogonal(F13, 11, 2)
    with pytest.raises(DimensionTooLarge):
        cyclic_mds_self_orthogonal(F13, 12, 6)
    with pytest.raises(DimensionTooLarge):
        cyclic_mds_self_orthogonal(F13, 12, 0)


def test_systematic_parity_part(F13):
    C = cyclic_mds_self_orthogonal(F13, 12, 5)
    A, perm = systematic_parity_part(C)
    assert (A.r, A.c) == (5, 7)
    assert sorted(perm) == list(range(12))
    # self-orthogonality in systematic form means A A^T = -I
    minus_I = MatrixFq.identity(F13, 5).scale_rows([F13.neg(1)] * 5)
    assert A.gram() == minus_I


@pytest.mark.parametrize("q,n,k", [(9, 8, 3), (13, 12, 5)])
def test_derived_mds_lcd_ladder(q, n, k):
    ctx = field_create(*{9: (3, 2), 13: (13, 1)}[q])
    C = cyclic_mds_self_orthogonal(ctx, n, k)
    for k_prime in range(1, k + 1):
        D = mds_lcd_from_self_orthogonal(C, k_prime)
        assert (D.n, D.k) == (n - k, k_prime)
        assert D.is_lcd()
        assert D.distance().value == n - k + 1 - k_prime
        assert D.classify() == "MDS"
    with pytest.raises(DimensionTooLarge):
        mds_lcd_from_self_orthogonal(C, k + 1)


def test_rs_pipeline_records(F9):
    records = rs_pipeline(F9, 8, 3)
    assert [(r.n, r.k, r.d) for r in records] == [(5, 1, 5), (5, 2, 4),
                                                  (5, 3, 3)]
    for rec in records:
        assert rec.d_status == EXACT
        assert rec.tag == "rs_lemma3"
        assert rec.provenance["m_gt_1"] is True
        assert replay_record(rec).to_text() == rec.matrix
    m1 = rs_pipeline(field_create(13), 12, 5, k_primes=[2])
    assert m1[0].provenance["m_gt_1"] is False


# -- randomized search --------------------------------------------------------

def test_search_finds_and_replays(F7):
    rec = search_random_lcd(F7, 6, 2, 5, budget=1000, seed=0)
    assert rec is not None
    assert rec.d == 5 and rec.d_status == EXACT
    code = rec.code()
    assert code.is_lcd() and code.distance().value == 5
    assert replay_record(rec).to_text() == rec.matrix


def test_search_none_when_impossible(F2):
    # Singleton: no [4,2,4] binary code
    assert search_random_lcd(F2, 4, 2, 4, budget=50, seed=0) is None


@pytest.mark.parametrize("n,k", [(3, 5), (3, 0), (4, -1)])
def test_search_rejects_k_outside_1_to_n(F7, monkeypatch, n, k):
    def walk(*args, **kwargs):
        raise AssertionError("a trial ran before the arguments were checked")

    monkeypatch.setattr(orthogen, "random_orthogonal", walk)
    with pytest.raises(ValueError):
        search_random_lcd(F7, n, k, 2, budget=200, seed=0)


def test_search_past_the_singleton_bound_runs_no_trial(F2, F7, monkeypatch):
    # d <= n - k + 1 for every [n, k] code, so no trial can hit; at the
    # bound itself trials still run
    def sample(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(orthogen, "random_orthogonal", sample)
    assert search_random_lcd(F2, 4, 2, 4, budget=100_000, seed=0) is None
    assert search_random_lcd(F7, 6, 2, 6, budget=10, seed=3) is None
    assert search_random_lcd(F7, 1, 1, 2, budget=10, seed=3) is None
    with pytest.raises(AssertionError):
        search_random_lcd(F7, 6, 2, 5, budget=10, seed=3)


def test_search_deterministic(F11):
    a = search_random_lcd(F11, 5, 3, 3, budget=200, seed=9)
    b = search_random_lcd(F11, 5, 3, 3, budget=200, seed=9)
    assert a is not None and a.to_json() == b.to_json()


def test_search_binary_fallback_twist(F2):
    rec = search_random_lcd(F2, 6, 3, 2, budget=500, seed=1)
    assert rec is not None
    assert rec.tag == "scaled" and rec.provenance["blocks"] == []
    assert replay_record(rec).to_text() == rec.matrix


# Records that search_random_lcd(*args) wrote while it sampled by random
# walk: random_walk must replay them byte for byte.
PINNED_SEARCHES = [
    (("11", 5, 3, 3, 200, 9),
     '{"d":3,"d_status":"exact","field":"11","k":3,"matrix":"11 3 5\\n'
     '5 6 9 6 5\\n5 3 6 3 10\\n5 0 6 10 3\\n","n":5,"provenance":'
     '{"blocks":[[10,2]],"kind":"search","lambdas":[10,4,4],'
     '"row_indices":[0,2,3],"seed":9,"trial":0,"walk_length":64},'
     '"tag":"rotated","timestamp":0}'),
    (("16", 7, 2, 6, 500, 8),
     '{"d":6,"d_status":"exact","field":"2^4","k":2,"matrix":"2^4 2 7\\n'
     '4 9 12 15 6 7 11\\n1 0 1 8 5 8 11\\n","n":7,"provenance":'
     '{"blocks":[[8,11]],"kind":"search","lambdas":[13,11],'
     '"row_indices":[0,2],"seed":8,"trial":12,"walk_length":64},'
     '"tag":"rotated","timestamp":0}'),
]

# The "uniform" records search_random_lcd(*args) writes for the same args
PINNED_UNIFORM = [
    (("11", 5, 3, 3, 200, 9),
     '{"d":3,"d_status":"exact","field":"11","k":3,"matrix":"11 3 5\\n'
     '0 2 4 3 8\\n10 8 0 0 9\\n10 1 2 3 10\\n","n":5,"provenance":'
     '{"blocks":[[10,2]],"kind":"uniform","lambdas":[10,4,4],'
     '"row_indices":[0,1,2],"seed":9,"trial":0},'
     '"tag":"rotated","timestamp":0}'),
    (("16", 7, 2, 6, 500, 8),
     '{"d":6,"d_status":"exact","field":"2^4","k":2,"matrix":"2^4 2 7\\n'
     '14 9 2 1 9 9 11\\n11 5 9 7 4 8 15\\n","n":7,"provenance":'
     '{"blocks":[[6,7]],"kind":"uniform","lambdas":[15,3],'
     '"row_indices":[0,1],"seed":8,"trial":1},'
     '"tag":"rotated","timestamp":0}'),
]


@pytest.mark.parametrize("args,expected", PINNED_UNIFORM)
def test_search_records_are_pinned(args, expected):
    desc, n, k, d, budget, seed = args
    rec = search_random_lcd(parse_field(desc), n, k, d, budget, seed)
    assert rec.to_json() == expected
    assert replay_record(rec).to_text() == rec.matrix


# The benchmark's search targets, (field, n, k, d): all but [8,4,4]_F4 ask
# for an MDS code, d = n - k + 1
SEARCH_SHAPES = [("7", 6, 2, 5), ("4", 8, 4, 4), ("11", 5, 3, 3),
                 ("11", 7, 3, 5), ("17", 7, 3, 5), ("16", 7, 2, 6),
                 ("16", 5, 2, 4), ("25", 6, 3, 4), ("13", 6, 3, 4)]


def _reference_search(ctx, n, k, target_d, budget, seed):
    """search_random_lcd with each subset's distance decided by enumerating
    its messages directly, not by LinearCode.distance."""
    from lcdkit import construct
    from lcdkit.codes import _distance_by_enumeration
    for trial in range(budget):
        trial_seed = construct._trial_seed(seed, trial)
        A = random_orthogonal(ctx, n, trial_seed, min_weight=target_d)
        if A is None:
            continue
        for subset in combinations(range(n), k):
            G = A.take_rows(subset)
            d, _ = _distance_by_enumeration(G.rows(), ctx, n, target_d)
            if d < target_d:
                continue
            rng = random.Random(trial_seed * 2 + 1)
            lam, blocks = construct._random_twist(ctx, k, rng)
            provenance = {"kind": "uniform", "seed": seed, "trial": trial,
                          "row_indices": list(subset), "lambdas": lam,
                          "blocks": blocks}
            return CodeRecord(
                field=ctx.descriptor, n=n, k=k, d=d, d_status=EXACT,
                tag="rotated" if blocks else "scaled", provenance=provenance,
                matrix=construct._twist(G, lam, blocks or None).to_text())
    return None


@pytest.mark.parametrize("desc,n,k,d", SEARCH_SHAPES)
def test_search_matches_enumerating_reference(desc, n, k, d, monkeypatch):
    # the MDS question answered by the Singleton certificate picks the same
    # subsets, so the same records, as enumerating every subset's messages
    distance, methods = LinearCode.distance, set()

    def spy(code, *args, **kwargs):
        result = distance(code, *args, **kwargs)
        methods.add(result.method)
        return result

    monkeypatch.setattr(LinearCode, "distance", spy)
    ctx = parse_field(desc)
    for seed in range(10):
        rec = search_random_lcd(ctx, n, k, d, 100_000, seed)
        assert rec is not None
        assert rec.to_json() == _reference_search(
            ctx, n, k, d, 100_000, seed).to_json()
    assert methods == ({"singleton"} if d == n - k + 1 else {"enumeration"})


KERNEL_FIELDS = ["2", "3", "4", "5", "7", "8", "9", "11", "13", "16", "25",
                 "1031"]


def test_mds_kernel_matches_enumeration():
    # every k-subset of uniform samples, decided on the side with fewer
    # rows, against enumerating the messages of the subset's own code,
    # wherever that visits at most 2^12 messages
    from lcdkit.codes import _distance_by_enumeration
    from lcdkit.construct import _mds_subsets
    seen = set()
    for desc in KERNEL_FIELDS:
        ctx = parse_field(desc)
        sides = set()
        for n in range(1, 9):
            for seed in range(3):
                rows = random_orthogonal(ctx, n, seed).rows()
                for k in range(1, n + 1):
                    got = list(_mds_subsets(ctx, rows, k))
                    assert [S for S, _ in got] == list(
                        combinations(range(n), k))
                    if (ctx.q ** k - 1) // (ctx.q - 1) > 1 << 12:
                        continue
                    sides.add((k > n - k, k == n))
                    for S, mds in got:
                        d = _distance_by_enumeration(
                            [rows[i] for i in S], ctx, n)[0]
                        assert mds == (d >= n - k + 1), (desc, n, k, S)
                        # the side tested, its rows, and the answer
                        seen.add((k > n - k, min(k, n - k, 3), mds))
        # S itself, a complement, and the empty complement of k = n
        assert sides == {(False, False), (True, False), (True, True)}, desc
    # every kind of side gave both answers, but k = n, always MDS
    assert seen == {(c, r, m) for c in (False, True) for r in (1, 2, 3)
                    for m in (False, True)} | {(True, 0, True)}


def _distance_reference_search(ctx, n, k, target_d, budget, seed):
    """search_random_lcd as it was before its kernel: every subset's code
    asked distance(at_least=target_d), d the value of the first hit."""
    from lcdkit import construct
    for trial in range(budget):
        trial_seed = construct._trial_seed(seed, trial)
        A = random_orthogonal(ctx, n, trial_seed, min_weight=target_d)
        if A is None:
            continue
        for subset in combinations(range(n), k):
            G = A.take_rows(subset)
            dist = LinearCode.from_basis(G, verify_rank=False).distance(
                at_least=target_d)
            if dist.status != EXACT or dist.value < target_d:
                continue
            rng = random.Random(trial_seed * 2 + 1)
            lam, blocks = construct._random_twist(ctx, k, rng)
            provenance = {"kind": "uniform", "seed": seed, "trial": trial,
                          "row_indices": list(subset), "lambdas": lam,
                          "blocks": blocks}
            return CodeRecord(
                field=ctx.descriptor, n=n, k=k, d=dist.value, d_status=EXACT,
                tag="rotated" if blocks else "scaled", provenance=provenance,
                matrix=construct._twist(G, lam, blocks or None).to_text())
    return None


@pytest.mark.parametrize("desc,n,k,d,kernel", [
    ("7", 5, 5, 1, True),           # k = n: the empty side
    ("7", 1, 1, 1, True),
    ("11", 6, 5, 2, True),          # n - k = 1: one complement row
    ("4", 5, 3, 3, True),           # two complement rows, even q
    ("8209", 4, 2, 3, False),       # q^k above the distance budget
    ("7", 6, 3, 3, False),          # below the Singleton bound
])
def test_search_edges_match_the_distance_reference(desc, n, k, d, kernel,
                                                   monkeypatch):
    from lcdkit import construct
    from lcdkit.codes import DEFAULT_DISTANCE_BUDGET
    ctx = parse_field(desc)
    assert kernel == (d == n - k + 1
                      and ctx.q ** k <= DEFAULT_DISTANCE_BUDGET)
    if not kernel:
        def refuse(*args):
            raise AssertionError("the kernel ran")
        monkeypatch.setattr(construct, "_mds_subsets", refuse)
    for seed in range(8):
        rec = search_random_lcd(ctx, n, k, d, 2000, seed)
        assert rec is not None
        assert rec.to_json() == _distance_reference_search(
            ctx, n, k, d, 2000, seed).to_json()
        assert replay_record(rec).to_text() == rec.matrix


def test_kernel_hit_that_distance_refutes_raises(F7, monkeypatch):
    # the hit's distance call certifies the record: a kernel passing a
    # subset that distance() refutes stops the search, never skips it
    from lcdkit import construct

    def every(ctx, rows, k):
        return ((S, True) for S in combinations(range(len(rows)), k))

    monkeypatch.setattr(construct, "_mds_subsets", every)
    with pytest.raises(AssertionError):
        for seed in range(20):
            search_random_lcd(F7, 6, 2, 5, 1, seed)


@pytest.mark.parametrize("args,line", PINNED_SEARCHES)
def test_walk_search_records_replay(args, line):
    rec = CodeRecord.from_json(line)
    assert rec.to_json() == line
    assert replay_record(rec).to_text() == rec.matrix


def test_negative_walk_length_is_refused():
    line = PINNED_SEARCHES[0][1].replace('"walk_length":64',
                                         '"walk_length":-2')
    with pytest.raises(InvalidValue):
        replay_record(CodeRecord.from_json(line))


@pytest.mark.parametrize("old,new", [
    ('"walk_length":64', '"walk_length":64.0'),
    ('"walk_length":64', '"walk_length":"64"'),
    ('"walk_length":64', '"walk_length":null'),
    ('"walk_length":64', '"walk_length":true'),
    (',"walk_length":64', ''),
    ('"row_indices":[0,2,3]', '"row_indices":"abc"'),
    ('"row_indices":[0,2,3]', '"row_indices":[0,2,true]'),
    ('"row_indices":[0,2,3]', '"row_indices":[0,2,2]'),
    ('"row_indices":[0,2,3]', '"row_indices":[0,2]'),
    ('"row_indices":[0,2,3]', '"row_indices":[0,2,5]'),
    ('"row_indices":[0,2,3]', '"row_indices":[-1,2,3]'),
    ('"row_indices":[0,2,3]', '"row_indices":[0,2,3.0]'),
    ('"seed":9', '"seed":"9"'),
    ('"seed":9', '"seed":9.5'),
    ('"seed":9', '"seed":false'),
    ('"trial":0', '"trial":-1'),
    ('"trial":0', '"trial":null'),
    ('"lambdas":[10,4,4]', '"lambdas":5'),
    ('"lambdas":[10,4,4]', '"lambdas":"abc"'),
    ('"lambdas":[10,4,4]', '"lambdas":[10,4,true]'),
    ('"lambdas":[10,4,4]', '"lambdas":[10,4,4.0]'),
    ('"blocks":[[10,2]]', '"blocks":7'),
    ('"blocks":[[10,2]]', '"blocks":[10,2]'),
    ('"blocks":[[10,2]]', '"blocks":[[10,2.0]]'),
    ('"blocks":[[10,2]]', '"blocks":[[10,false]]'),
    ('"blocks":[[10,2]]', '"blocks":[[10,2,3]]'),
])
def test_replay_refuses_mistyped_search_provenance(old, new):
    line = PINNED_SEARCHES[0][1]
    assert old in line
    line = line.replace(old, new)
    with pytest.raises(ParseError):
        replay_record(CodeRecord.from_json(line))


@pytest.mark.parametrize("name,value", [
    ("seed", "9"), ("seed", 9.5), ("seed", False), ("seed", None),
    ("seed", _MISSING), ("trial", -1), ("trial", None), ("trial", True),
    ("trial", 0.0), ("trial", _MISSING),
    ("row_indices", "abc"), ("row_indices", [0, 1, True]),
    ("row_indices", [0, 1, 1]), ("row_indices", [0, 1]),
    ("row_indices", [0, 1, 5]), ("row_indices", [-1, 1, 2]),
    ("row_indices", [0, 1, 2.0]), ("row_indices", _MISSING),
    ("lambdas", 5), ("lambdas", "abc"), ("lambdas", [10, 4, True]),
    ("lambdas", [10, 4, 4.0]),
    ("blocks", 7), ("blocks", [10, 2]), ("blocks", [[10, 2.0]]),
    ("blocks", [[10, False]]), ("blocks", [[10, 2, 3]]),
])
def test_replay_refuses_mistyped_uniform_provenance(name, value):
    raw = json.loads(PINNED_UNIFORM[0][1])
    if value is _MISSING:
        del raw["provenance"][name]
    else:
        raw["provenance"][name] = value
    with pytest.raises(ParseError):
        replay_record(CodeRecord.from_json(json.dumps(raw)))


@pytest.mark.parametrize("lambdas", ["[10,4,-1]", "[10,4,11]"])
def test_replay_refuses_search_lambdas_outside_the_field(lambdas):
    line = PINNED_SEARCHES[0][1].replace('"lambdas":[10,4,4]',
                                         f'"lambdas":{lambdas}')
    with pytest.raises(InvalidValue):
        replay_record(CodeRecord.from_json(line))


@pytest.mark.parametrize("name,value", [
    ("lambdas", [2, 7, True]), ("lambdas", 3), ("blocks", [[3, 4.0]]),
    ("blocks", [3, 4])])
def test_replay_refuses_mistyped_rows_provenance(name, value):
    prov = {"kind": "rows", "walk_seed": 12345, "walk_length": 40,
            "row_indices": [5, 1, 3], "lambdas": [2, 7, 11],
            "blocks": [[3, 4]], name: value}
    rec = CodeRecord(field="13", n=6, k=3, d=None, d_status="lower_bound",
                     tag="rows", provenance=prov, matrix="")
    with pytest.raises(ParseError):
        replay_record(rec)


# the records that the extend, product and project verbs wrote, pinned
# from an earlier version
PINNED_RECORDS = {
    'extended-grow':
        ('{"d":1,"d_status":"exact","field":"5","k":3,"matrix":"5 3 7\\n'
         '1 0 4 4 1 1 2\\n0 1 0 0 2 3 1\\n0 0 0 0 0 1 0\\n","n":7,'
         '"provenance":{"added_row":[1,0],"base":"5 2 5\\n1 0 4 4 1\\n'
         '0 1 0 0 2\\n","kind":"extended","lambdas":[1,1],"pair":[1,2]},'
         '"tag":"extended","timestamp":0}'),
    'extended-lambdas':
        ('{"d":4,"d_status":"exact","field":"5","k":2,"matrix":"5 2 7\\n'
         '1 0 4 4 1 2 4\\n0 1 0 0 2 4 3\\n","n":7,'
         '"provenance":{"added_row":null,"base":"5 2 5\\n1 0 4 4 1\\n'
         '0 1 0 0 2\\n","kind":"extended","lambdas":[2,3],"pair":[1,2]},'
         '"tag":"extended","timestamp":0}'),
    'matrix_product':
        ('{"d":12,"d_status":"exact","field":"11","k":4,'
         '"matrix":"11 4 16\\n10 8 1 5 10 8 1 5 1 3 10 6 10 8 1 5\\n'
         '4 1 1 3 4 1 1 3 4 1 1 3 7 10 10 8\\n'
         '3 10 7 0 8 1 4 0 8 1 4 0 8 1 4 0\\n'
         '9 6 10 9 2 5 1 2 9 6 10 9 9 6 10 9\\n","n":16,'
         '"provenance":{"a_bar":"11 4 4\\n10 10 1 10\\n4 4 4 7\\n'
         '3 8 8 8\\n9 2 9 9\\n","components":["11 1 4\\n1 3 10 6\\n",'
         '"11 1 4\\n1 3 3 9\\n","11 1 4\\n1 7 6 0\\n","11 1 4\\n1 8 6 1\\n'
         '"],"kind":"matrix_product"},"tag":"matrix_product",'
         '"timestamp":0}'),
    'matrix_product-blocks':
        ('{"d":11,"d_status":"exact","field":"11","k":4,'
         '"matrix":"11 4 16\\n8 2 3 4 8 2 3 4 10 8 1 5 1 3 10 6\\n'
         '7 10 10 8 7 10 10 8 1 3 3 9 10 8 8 2\\n'
         '8 1 4 0 3 10 7 0 1 7 6 0 1 7 6 0\\n'
         '8 9 4 8 3 2 7 3 2 5 1 2 2 5 1 2\\n","n":16,'
         '"provenance":{"a_bar":"11 4 4\\n8 8 10 1\\n7 7 1 10\\n8 3 1 1\\n'
         '8 3 2 2\\n","components":["11 1 4\\n1 3 10 6\\n","11 1 4\\n'
         '1 3 3 9\\n","11 1 4\\n1 7 6 0\\n","11 1 4\\n1 8 6 1\\n"],'
         '"kind":"matrix_product"},"tag":"matrix_product","timestamp":0}'),
    'projection-4/2':
        ('{"d":5,"d_status":"exact","field":"2","k":2,"matrix":"2 2 8\\n'
         '1 0 1 1 0 1 1 0\\n0 1 1 0 1 1 0 1\\n","n":8,'
         '"provenance":{"basis":[3,2],"kind":"projection",'
         '"source":"2^2 1 4\\n1 2 3 1\\n"},"tag":"projection",'
         '"timestamp":0}'),
    'projection-27/3':
        ('{"d":5,"d_status":"exact","field":"3","k":6,"matrix":"3 6 15\\n'
         '1 0 0 0 0 0 1 1 1 1 2 2 0 2 2\\n0 1 0 0 0 0 1 2 2 2 0 1 2 2 1\\n'
         '0 0 1 0 0 0 1 2 0 2 1 2 2 1 1\\n0 0 0 1 0 0 1 2 1 1 0 2 0 2 1\\n'
         '0 0 0 0 1 0 2 2 0 0 0 2 2 1 0\\n0 0 0 0 0 1 1 0 1 2 2 0 1 0 0\\n'
         '","n":15,"provenance":{"basis":[11,21,24],"kind":"projection",'
         '"source":"3^3 2 5\\n1 0 8 3 5\\n0 1 19 26 18\\n"},'
         '"tag":"projection","timestamp":0}'),
    'rs_lemma3':
        ('{"d":5,"d_status":"exact","field":"3^2","k":1,'
         '"matrix":"3^2 1 5\\n8 4 7 7 6\\n","n":5,'
         '"provenance":{"column_permutation":[0,1,2,3,4,5,6,7],"k":3,'
         '"k_prime":1,"kind":"rs_lemma3","m_gt_1":true,"n":8},'
         '"tag":"rs_lemma3","timestamp":0}'),
}


def _read_code(text):
    return LinearCode.from_generator(MatrixFq.from_text(text))


def _pinned_builders():
    ex = product_example()
    comps = [_read_code(c.G.to_text()) for c in ex["components"]]
    prod = (comps, ex["base"], ex["scalars"])
    c5 = _read_code("5 2 5\n3 0 2 2 3\n1 3 4 4 2\n")
    c4 = _read_code("2^2 1 4\n1 2 3 1\n")
    c27 = _read_code("3^3 2 5\n1 5 17 2 9\n0 3 1 22 7\n")
    return {
        "extended-grow": lambda: extension_record(c5, grow=True),
        "extended-lambdas": lambda: extension_record(c5, [2, 3]),
        "matrix_product": lambda: product_record(*prod),
        "matrix_product-blocks":
            lambda: product_record(*prod, [(1, 2), (3, 4)]),
        "projection-4/2":
            lambda: projection_record(c4, c4.ctx.self_dual_basis()),
        "projection-27/3":
            lambda: projection_record(c27, c27.ctx.self_dual_basis()),
        "rs_lemma3": lambda: rs_pipeline(parse_field("3^2"), 8, 3, [1])[0],
    }


@pytest.mark.parametrize("case", PINNED_RECORDS)
def test_built_records_are_pinned(case):
    rec = _pinned_builders()[case]()
    assert rec.to_json() == PINNED_RECORDS[case]
    assert replay_record(rec).to_text() == rec.matrix


# every edit names a field replay reads; an earlier version met each one
# with a raw TypeError, KeyError or AttributeError, or replayed it as if
# true were 1 and 2.0 were 2
@pytest.mark.parametrize("case,name,value", [
    ("extended-grow", "pair", 5),
    ("extended-grow", "pair", [True, 2]),
    ("extended-grow", "pair", [1, 2.0]),
    ("extended-grow", "pair", _MISSING),
    ("extended-grow", "lambdas", None),
    ("extended-grow", "lambdas", "11"),
    ("extended-grow", "lambdas", [1, True]),
    ("extended-grow", "added_row", 7),
    ("extended-grow", "added_row", [1]),
    ("extended-grow", "added_row", [1, False]),
    ("extended-grow", "added_row", _MISSING),
    ("extended-lambdas", "base", 5),
    ("extended-lambdas", "base", _MISSING),
    ("matrix_product", "components", None),
    ("matrix_product", "components", [5]),
    ("matrix_product", "components", _MISSING),
    ("matrix_product", "a_bar", 7),
    ("matrix_product", "a_bar", ["11 4 4"]),
    ("matrix_product", "a_bar", _MISSING),
    ("projection-4/2", "basis", 3),
    ("projection-4/2", "basis", [3, True]),
    ("projection-4/2", "basis", [3.0, 2]),
    ("projection-4/2", "basis", _MISSING),
    ("projection-4/2", "source", 5),
    ("projection-4/2", "source", _MISSING),
    ("rs_lemma3", "n", "8"),
    ("rs_lemma3", "n", _MISSING),
    ("rs_lemma3", "k", 3.0),
    ("rs_lemma3", "k_prime", True),
    ("rs_lemma3", "k_prime", None),
])
def test_replay_refuses_mistyped_built_provenance(case, name, value):
    raw = json.loads(PINNED_RECORDS[case])
    assert name in raw["provenance"]
    if value is _MISSING:
        del raw["provenance"][name]
    else:
        raw["provenance"][name] = value
    with pytest.raises(ParseError):
        replay_record(CodeRecord.from_json(json.dumps(raw)))


@pytest.mark.parametrize("n,prov,matrix", [
    (6, {"kind": "rows", "walk_seed": 12345, "walk_length": 40,
         "row_indices": [5, 1, 3], "lambdas": [2, 7, 11], "blocks": [[3, 4]]},
     "13 3 6\n2 2 1 10 12 9\n8 12 10 3 6 12\n11 7 4 5 12 0\n"),
    (5, {"kind": "rows", "walk_seed": 77, "walk_length": 64,
         "row_indices": [0, 2]},
     "13 2 5\n7 6 11 9 0\n7 12 12 8 4\n"),
])
def test_hand_made_rows_record_replays(F13, n, prov, matrix):
    # a "rows" record names its walk seed directly; lambdas and blocks
    # are optional, and the matrices are pinned from an earlier version
    rec = CodeRecord(field="13", n=n, k=len(prov["row_indices"]), d=None,
                     d_status="lower_bound", tag="rows", provenance=prov,
                     matrix=matrix)
    assert replay_record(rec).to_text() == matrix
    G = random_walk(generator_set(F13, n), prov["walk_length"],
                    prov["walk_seed"]).take_rows(prov["row_indices"])
    if prov.get("blocks"):
        G = rotation_block_diagonal(F13, prov["blocks"], G.r) @ G
    if prov.get("lambdas"):
        G = G.scale_rows(prov["lambdas"])
    assert G.to_text() == matrix
