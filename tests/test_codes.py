"""Linear code core: duality, hull, distance strategies, record store."""

import json
import random
import time
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdkit import (EXACT, LOWER_BOUND, CodeRecord, LinearCode, MatrixFq,
                    RecordStore, field_create, mplcd_build, parse_field,
                    rs_pipeline)
from lcdkit.errors import (DistanceNotExact, EmptyResult, InvalidValue,
                           LcdError, ParseError, ZeroMatrix)
from lcdkit.fixtures import product_example

from conftest import (random_code, random_lcd_code, random_matrix,
                      wide_orders)


def ham74(F2):
    return LinearCode.from_basis(MatrixFq.from_rows(F2, [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1]]))


def hamming(ctx, r):
    """The Hamming code with r parity checks over ctx, built fresh from its
    generator: its parity check has one column per point of PG(r - 1, q)."""
    q = ctx.q
    points = [[v // q ** i % q for i in range(r)] for v in range(1, q ** r)]
    points = [pt for pt in points if next(x for x in pt if x) == 1]
    H = MatrixFq.from_rows(ctx, [[pt[i] for pt in points] for i in range(r)])
    return LinearCode.from_generator(
        LinearCode.from_basis(H).dual().G)


def test_hamming_code_facts(F2):
    C = ham74(F2)
    assert (C.n, C.k) == (7, 4)
    d = C.distance()
    assert d.status == EXACT and d.value == 3
    D = C.dual()
    assert (D.n, D.k) == (7, 3)
    assert D.distance().value == 4       # simplex code
    # Hamming [7,4] meets its dual in the simplex: hull dim 3
    assert C.hull_dim() == 3
    assert not C.is_lcd()


def test_repetition_and_full_codes(F3):
    rep = LinearCode.from_basis(MatrixFq.from_rows(F3, [[1, 1, 1, 1]]))
    assert rep.distance().value == 4
    assert rep.is_lcd()                  # 1+1+1+1 = 1 != 0
    full = LinearCode.full(F3, 3)
    assert full.distance().value == 1
    assert full.dual().k == 0


def test_zero_rows_rejected(F2):
    with pytest.raises(ZeroMatrix):
        LinearCode.from_generator(MatrixFq.zeros(F2, 2, 4))
    with pytest.raises(ZeroMatrix):
        LinearCode.from_basis(MatrixFq.from_rows(F2, [[1, 1], [1, 1]]))


def test_dual_of_dual_round_trip(F5, rng):
    for _ in range(25):
        C = random_code(F5, 6, rng.randrange(1, 6), rng)
        assert C.dual().dual() == C
        assert C.dual().k == C.n - C.k


def test_duality_orthogonality(F7, rng):
    for _ in range(20):
        C = random_code(F7, 5, rng.randrange(1, 5), rng)
        D = C.dual()
        prod = C.G @ D.G.transpose()
        assert prod.is_zero()


def test_hull_from_brute_force(F2, F3, rng):
    # known answers first: Hamming [7,4] (its simplex dual is
    # self-orthogonal) and [13,10]_F3 and the full code read H H^T, the
    # self-dual extended Hamming [8,4] sits on the 2k = n line and reads
    # G G^T, and the full code's dual is the zero code
    ext84 = LinearCode.from_basis(MatrixFq.from_rows(F2, [
        [1, 0, 0, 0, 0, 1, 1, 1],
        [0, 1, 0, 0, 1, 0, 1, 1],
        [0, 0, 1, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 1, 1, 1, 0]]))
    known = [(ham74(F2), 3), (hamming(F3, 3), 3), (ext84, 4),
             (LinearCode.full(F3, 5), 0)]
    known += [(random_code(F3, 5, rng.randrange(1, 4), rng), None)
              for _ in range(40)]
    for C, want in known:
        hull = C.brute_hull()
        assert hull.r == C.hull_dim()
        assert C.is_lcd() == (hull.r == 0)
        assert want is None or hull.r == want


def test_dual_is_built_once(F3, monkeypatch):
    from lcdkit import gf
    C = hamming(F3, 3)
    assert C.dual() is C.dual()
    calls = []
    original = gf._nullspace_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(gf, "_nullspace_rows", counted)
    C = hamming(F3, 3)
    calls.clear()
    # the chooser sends this code to the subset scan, which needs the dual;
    # the hull (2k > n) reads H H^T from the same dual
    d = C.distance()
    hull = C.hull_dim()
    assert len(calls) == 1
    assert d.method == "subsets"
    fresh = hamming(F3, 3)
    assert d == fresh.distance() and hull == fresh.hull_dim() == 3


@pytest.mark.parametrize("desc", ["2", "3", "4", "5", "9"])
def test_lcd_hull_and_determinant_agree(desc):
    # is_lcd and hull_dim share one elimination, each order of first call
    ctx = parse_field(desc)
    rng = random.Random(f"hull:{desc}")
    seen = set()
    for trial in range(30):
        n = rng.randrange(2, 7)
        k = rng.randrange(1, n + 1)
        while ctx.q ** (k + 1) > 1 << 12:
            k -= 1
        G = random_code(ctx, n, k, rng).G
        if trial % 3 == 0:
            # a row orthogonal to every row, itself included, joins the hull
            D = LinearCode.from_basis(G).dual()
            extra = [h for h in D.G.rows()
                     if MatrixFq.from_rows(ctx, [h]).gram().is_zero()]
            if extra and G.vstack(MatrixFq.from_rows(ctx, extra[:1])
                                  ).rank() == G.r + 1:
                G = G.vstack(MatrixFq.from_rows(ctx, extra[:1]))
        hull = LinearCode.from_basis(G).brute_hull().r
        det = G.gram().det()
        first, second = LinearCode.from_basis(G), LinearCode.from_basis(G)
        assert first.is_lcd() == (first.hull_dim() == 0) == (det != 0)
        assert second.hull_dim() == hull == first.hull_dim()
        assert second.is_lcd() == (hull == 0)
        seen.add(hull == 0)
    assert seen == {True, False}


def test_distance_strategies_agree(rng):
    # enumeration (q^k small) vs dual column subsets on the same codes
    from lcdkit.codes import (_distance_by_column_subsets,
                              _distance_by_enumeration)
    codes = [random_code(parse_field(desc), n, k, rng)
             for desc, n, k, count in (("5", 8, 3, 25), ("3", 10, 5, 10),
                                       ("4", 9, 4, 10), ("9", 7, 3, 10))
             for _ in range(count)]
    # the [8,6,3]_F16 code of the RS pipeline: 16^6 messages
    rec = rs_pipeline(parse_field("16"), 15, 7, [6])[0]
    codes.append(rec.code())
    for C in codes:
        by_enum, messages = _distance_by_enumeration(C.G.rows(), C.ctx, C.n)
        H = C.dual().G
        by_cols, exact, leaves = _distance_by_column_subsets(H, C.n, 1 << 26)
        assert exact and by_enum == by_cols
        assert messages == (C.ctx.q ** C.k - 1) // (C.ctx.q - 1)
        assert C.distance()[:3] == (by_enum, EXACT, None)
    assert (rec.n, rec.k, rec.d) == (8, 6, 3) == (C.n, C.k, by_enum)
    # the binary Hamming [31,26] code: q^k is the default budget, and its
    # 2^26 - 1 messages took over 20 s; the scan certifies d = 3 instead
    F2 = parse_field("2")
    H = MatrixFq.from_rows(F2, [[(j >> i) & 1 for j in range(1, 32)]
                                for i in range(5)])
    ham = LinearCode.from_basis(H).dual()
    assert (ham.n, ham.k) == (31, 26)
    start = time.perf_counter()
    res = ham.distance()
    assert time.perf_counter() - start < 0.1
    assert res[:3] == (3, EXACT, None) and res.method == "subsets"
    assert 0 < res.work <= 31 + 465 + 4495


def _todays_rule(C, budget, d_enum, scan):
    """(value, status, upper) by the rule the chooser replaced: enumerate
    (whose answer, d_enum, no budget changes) exactly when q^k <= budget,
    else scan column subsets.  The information sets, which run only when
    q^k <= budget, must answer d_enum as well."""
    if C.k == C.n:
        return 1, EXACT, None
    if C.ctx.q ** C.k <= budget:
        return d_enum, EXACT, None
    value, exact, _ = scan(C.dual().G, C.n, budget)
    return ((value, EXACT, None) if exact
            else (value, LOWER_BOUND, min(C.G.row_weights())))


def _full_scan_charge(C):
    """The chooser's charge bound: C(n, w) rows(H) w^2 over w <= u."""
    rows_h = C.n - C.k
    top = min(rows_h, min(C.G.row_weights()))
    return sum(comb(C.n, w) * rows_h * w * w for w in range(1, top + 1))


def grs_code(ctx, n, k, rng):
    """A generalized Reed-Solomon [n, k] code, kept as its evaluation rows:
    MDS, d = n - k + 1."""
    points = rng.sample(range(ctx.q), n)
    mults = [rng.randrange(1, ctx.q) for _ in points]
    return LinearCode.from_basis(MatrixFq.from_rows(ctx, [
        [ctx.mul(v, ctx.power(a, i)) for a, v in zip(points, mults)]
        for i in range(k)]))


def _certificate_charge(C):
    """The certificate's charge: C(n, r) r^3 on the side with fewer rows."""
    r = min(C.k, C.n - C.k)
    return comb(C.n, r) * r ** 3


def test_distance_chooser_keeps_every_answer(monkeypatch):
    from lcdkit import codes
    enumerate_ = codes._distance_by_enumeration
    scan = codes._distance_by_column_subsets
    certify = codes._every_column_subset_independent
    sets = codes._distance_by_information_sets
    ran = []

    def spy(method, fn):
        def call(*args):
            ran.append(method)
            return fn(*args)
        return call

    monkeypatch.setattr(codes, "_distance_by_enumeration",
                        spy("enumeration", enumerate_))
    monkeypatch.setattr(codes, "_distance_by_column_subsets",
                        spy("subsets", scan))
    monkeypatch.setattr(codes, "_every_column_subset_independent",
                        spy("singleton", certify))
    monkeypatch.setattr(codes, "_distance_by_information_sets",
                        spy("information_sets", sets))
    rng = random.Random("chooser")
    methods = set()
    shapes = [("2", 14, 11), ("2", 16, 12), ("2", 12, 6), ("3", 10, 7),
              ("3", 9, 4), ("4", 9, 6), ("5", 8, 3), ("7", 8, 6),
              ("16", 7, 2), ("16", 8, 6), ("9", 6, 6), ("2", 20, 16)]
    # MDS shapes, which reach the certificate
    grs_shapes = [("13", 12, 5), ("11", 10, 4), ("2^11", 7, 2),
                  ("16", 8, 5)]
    for (desc, n, k), trial in product(shapes + grs_shapes, range(3)):
        ctx = parse_field(desc)
        make = grs_code if (desc, n, k) in grs_shapes else random_code
        G = make(ctx, n, k, rng).G
        if trial == 1 and k < n:
            # a repeated column keeps d <= 2 whatever was drawn
            G = G.take_cols(list(range(n - 1)) + [0])
        C = LinearCode.from_basis(G)
        charge = _full_scan_charge(C) if k < n else 0
        single = _certificate_charge(C) if k < n else 0
        d_enum = enumerate_(G.rows(), ctx, n)[0] if k < n else None
        budgets = {codes.DEFAULT_DISTANCE_BUDGET, 0, 1,
                   ctx.q ** k - 1, ctx.q ** k, ctx.q ** k + 1,
                   charge - 1, charge, charge + 1,
                   single - 1, single, single + 1}
        for budget in sorted(b for b in budgets if b >= 0):
            C = LinearCode.from_basis(G)
            ran.clear()
            res = C.distance(budget)
            assert res[:3] == _todays_rule(C, budget, d_enum, scan), (
                desc, G, budget)
            # method names the strategy that answered; a certificate that
            # finds a dependent set runs before it
            if res.method != "singleton" and ran[:1] == ["singleton"]:
                assert ran == ["singleton", res.method]
                assert d_enum < n - k + 1
            else:
                assert ran == ([] if k == n else [res.method])
            assert res.work <= budget
            if "singleton" in ran:
                # tried only on an answer that is exact anyway, and only
                # when its own charge fits
                assert single <= budget and res.status == EXACT
                assert min(G.row_weights()) > n - k
            if res.method == "singleton":
                assert res.value == n - k + 1 and res.work == comb(n, k)
            if "information_sets" in ran:
                # only on a plain call that would otherwise enumerate
                assert ctx.q ** k <= budget and res.status == EXACT
            if res.method == "subsets" and ctx.q ** k <= budget:
                # chosen over enumeration only when the scan's whole
                # charge fits, so the answer cannot be cut short
                assert charge <= budget and res.status == EXACT
            methods.add(res.method)
    assert methods == {"enumeration", "subsets", "trivial", "singleton",
                       "information_sets"}


def test_negative_distance_budget_is_rejected(F7):
    # Reed-Solomon [5,2,4]: evaluations of 1 and x at 0..4
    C = LinearCode.from_basis(MatrixFq.from_rows(F7, [[1, 1, 1, 1, 1],
                                                      [0, 1, 2, 3, 4]]))
    with pytest.raises(InvalidValue):
        C.distance(budget=-5)
    with pytest.raises(InvalidValue):
        C.distance(budget=-1, at_least=2)
    # budget 0 still degrades to a bound, and caches nothing exact
    res = C.distance(budget=0)
    assert res[:3] == (1, LOWER_BOUND, 4) and res.work == 0
    assert C.distance()[:3] == (4, EXACT, None)
    # a cached exact distance does not excuse a negative budget
    with pytest.raises(InvalidValue):
        C.distance(budget=-5)


def _independent_by_rank(M):
    """Whether every M.r columns of M have full rank, subset by subset."""
    return all(M.take_cols(cols).rank() == M.r
               for cols in combinations(range(M.c), M.r))


@pytest.mark.parametrize("desc", ["2", "3", "4", "7", "8/2", "9", "16",
                                  "1031"])
def test_singleton_certificate_matches_rank_oracle(desc):
    # 1031 lies above the table cap: its table rows are computed on access
    from lcdkit.codes import (_distance_by_enumeration,
                              _every_column_subset_independent)
    ctx = parse_field(desc)
    rng = random.Random(f"singleton:{desc}")
    cases = []
    for n in range(2, 10):
        for k in sorted({1, n - 1, rng.randrange(1, n)}):
            G = random_code(ctx, n, k, rng).G
            cases.append(G)
            if n <= ctx.q:
                cases.append(grs_code(ctx, n, k, rng).G)
            rows = G.rows()
            # a zero column and a repeated column, where the rank allows
            for col in ([0] * k, [row[0] for row in rows]):
                H = MatrixFq.from_rows(
                    ctx, [list(row[1:]) + [c] for row, c in zip(rows, col)])
                if H.rank() == k:
                    cases.append(H)
    seen = set()
    for G in cases:
        C = LinearCode.from_basis(G)
        n, k = C.n, C.k
        H = C.dual().G
        on_g = _every_column_subset_independent(ctx, G.rows())
        on_h = _every_column_subset_independent(ctx, H.rows())
        assert on_g == _independent_by_rank(G), G
        assert on_h == _independent_by_rank(H), G
        # every k columns of G independent exactly when every n - k of H
        assert on_g == on_h
        if ctx.q ** k <= 1 << 16:
            d = _distance_by_enumeration(G.rows(), ctx, n)[0]
            assert on_g == (d == n - k + 1)
        seen.add(on_g)
    assert seen == {True, False}


def test_singleton_certificate_on_rs_15_7():
    # Reed-Solomon [15,7]_F16: the polynomials of degree < 7 evaluated at
    # the 15 nonzero elements
    from lcdkit.codes import SINGLETON
    ctx = parse_field("16")
    C = LinearCode.from_basis(MatrixFq.from_rows(ctx, [
        [ctx.power(a, i) for a in range(1, 16)] for i in range(7)]))
    res = C.distance()
    assert res[:3] == (9, EXACT, None)
    assert res.method == SINGLETON == "singleton"
    assert res.work == comb(15, 7) == 6435


@pytest.mark.parametrize("k_prime", [2, 3])
def test_certificate_runs_by_rule_on_derived_codes(k_prime):
    # derived [20, k']_F25 codes from rs-pipeline: enumeration would visit
    # only 26 or 651 messages, and the certificate still answers, by rule,
    # with enumeration's (value, status, upper)
    from lcdkit.codes import _distance_by_enumeration
    from lcdkit.construct import (cyclic_mds_self_orthogonal,
                                  mds_lcd_from_self_orthogonal)
    ctx = parse_field("5^2")
    C = cyclic_mds_self_orthogonal(ctx, 24, 4)
    G = mds_lcd_from_self_orthogonal(C, k_prime).G
    res = LinearCode.from_basis(G, verify_rank=False).distance()
    assert res.method == "singleton" and res.work == comb(20, k_prime)
    d = _distance_by_enumeration(G.rows(), ctx, G.c)[0]
    assert res[:3] == (d, EXACT, None) == (21 - k_prime, EXACT, None)


@pytest.mark.parametrize("desc", ["16", "1031"])
def test_column_walks_share_one_pivot_table_per_field(desc, monkeypatch):
    # 1031 lies above the table cap: its pivot rows are computed rows
    from lcdkit import codes, gf
    ctx = parse_field(desc)
    C = grs_code(ctx, 10, 4, random.Random(f"pivots:{desc}"))
    G, H = C.G, C.dual().G
    inv, calls = gf.FieldCtx.inv, []

    def counted(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(gf.FieldCtx, "inv", counted)
    for _ in range(2):
        calls.clear()
        # the certificate on both sides, then the scan, which stops at d
        assert codes._every_column_subset_independent(ctx, G.rows())
        assert codes._every_column_subset_independent(ctx, H.rows())
        assert codes._distance_by_column_subsets(H, 10, 1 << 20)[:2] == (
            7, True)
    # the first round may fill the field's table; the second only reads it
    assert calls == []
    assert ctx.inv(1) == 1 and calls == [1]         # the spy sees a call


def _enumeration_reference(rows, ctx, n, at_least):
    """The enumeration's visiting order on plain tuples through ctx.add and
    ctx.mul: lead row pinned to 1, the rows after it by coefficient 0 first
    and then 1..q-1, the last row's multiples in one loop at each leaf that
    breaks at the first weight below both at_least and the leaf's best.
    Returns (the weight found, messages visited)."""
    k, best, seen = len(rows), n + 1, 0

    def axpy(v, c, row):
        return tuple(ctx.add(a, ctx.mul(c, b)) for a, b in zip(v, row))

    def weight(v):
        return sum(1 for x in v if x)

    for lead in range(k):
        leaves = [tuple(rows[lead])]
        for row in rows[lead + 1:k - 1]:
            leaves = [axpy(v, c, row) for v in leaves for c in range(ctx.q)]
        for vec in leaves:
            w = weight(vec)
            seen += 1
            if lead < k - 1:
                for c in range(1, ctx.q):
                    x = weight(axpy(vec, c, rows[-1]))
                    seen += 1
                    if x < w:
                        w = x
                        if x < at_least:
                            break
            if w < best:
                best = w
                if best < at_least:
                    return best, seen
    return best, seen


# GF(1031) and GF(2^11) lie above the table cap, in odd and even
# characteristic; 81/9 is a tower whose codes carry four base-3 digits
@pytest.mark.parametrize("desc", ["2", "3", "4", "5", "7", "8", "9", "16",
                                  "25", "27", "32", "81/9", "1031", "2^11"])
def test_enumeration_matches_codeword_oracle(desc, monkeypatch):
    from lcdkit import codes
    ctx = parse_field(desc)
    rng = random.Random(f"enumeration:{desc}")
    full = [ctx.q - 1] * 9        # every base-p digit is p - 1
    for trial in range(16):
        n = rng.randrange(2, 9)
        k_max = 1
        while k_max < n - 1 and ctx.q ** (k_max + 1) <= 1 << 13:
            k_max += 1
        k = (1, min(n - 1, k_max), rng.randrange(1, k_max + 1))[trial % 3]
        while True:
            rows = [[rng.randrange(ctx.q) if rng.random() < 0.8 else 0
                     for _ in range(n)] for _ in range(k)]
            kind = trial % 4
            if kind == 0:
                zero = rng.randrange(n)
                for row in rows:
                    row[zero] = 0
            elif kind == 1:
                a, b = rng.sample(range(n), 2)
                for row in rows:
                    row[b] = row[a]
            elif kind == 2:
                rows[rng.randrange(k)] = full[:n]
            G = MatrixFq.from_rows(ctx, rows)
            if G.rank() == k:
                break
        C = LinearCode.from_basis(G)
        # the oracle shares no code with the packed enumerator
        with monkeypatch.context() as patch:
            patch.setattr(codes, "_words", None)
            d = min(sum(1 for x in w if x) for w in C.codewords() if any(w))
        for t in range(n + 2):
            w, seen = codes._distance_by_enumeration(rows, ctx, n, t)
            assert (w, seen) == _enumeration_reference(rows, ctx, n, t), (
                rows, t)
            assert w == d if d >= t else d <= w < t, (rows, t)
            assert seen <= (ctx.q ** k - 1) // (ctx.q - 1)


def _information_set_cases(ctx, rng):
    """Seeded full-rank generators over ctx with n <= 12, every k with
    q^k <= 2^20: three drawn codes per k, and for k < n one with a zero
    column, one with a repeated column and one holding a unit row (d = 1).
    Every n < 2k leaves room for one information set only."""
    k_max = 1
    while k_max < 12 and ctx.q ** (k_max + 1) <= 1 << 20:
        k_max += 1
    cases = []
    for k in range(1, k_max + 1):
        for kind in (0, 0, 0, 1, 2, 3) if k < 12 else (0,):
            n = rng.randrange(max(k, 2) if kind == 0 else k + 1, 13)
            while True:
                rows = [[rng.randrange(ctx.q) if rng.random() < 0.8 else 0
                         for _ in range(n)] for _ in range(k)]
                if kind == 1:
                    zero = rng.randrange(n)
                    for row in rows:
                        row[zero] = 0
                elif kind == 2:
                    a, b = rng.sample(range(n), 2)
                    for row in rows:
                        row[b] = row[a]
                elif kind == 3:
                    unit = rng.randrange(n)
                    rows[rng.randrange(k)] = [int(j == unit)
                                              for j in range(n)]
                if MatrixFq.from_rows(ctx, rows).rank() == k:
                    break
            cases.append(rows)
    return cases


@pytest.mark.parametrize("desc", ["2", "3", "4", "5", "7", "8", "9", "11",
                                  "16", "25"])
def test_information_sets_match_enumeration_and_subsets(desc):
    from lcdkit import codes
    ctx = parse_field(desc)
    methods, most_sets, ds = set(), set(), set()
    for rows in _information_set_cases(ctx, random.Random(f"sets:{desc}")):
        k, n = len(rows), len(rows[0])
        d, seen, method = codes._distance_by_information_sets(rows, ctx, n)
        by_enum, messages = codes._distance_by_enumeration(rows, ctx, n)
        H = LinearCode.from_basis(MatrixFq.from_rows(ctx, rows)).dual().G
        assert (d, True) == codes._distance_by_column_subsets(
            H, n, 1 << 62)[:2] == (by_enum, True), rows
        # never more messages than the full enumeration, which answers
        # whenever the sets found predict more
        assert method in ("information_sets", "enumeration")
        assert seen == messages if method == "enumeration" else (
            0 < seen <= messages)
        methods.add(method)
        most_sets.add(min(n // k, 3))
        ds.add(d)
    assert methods == {"information_sets", "enumeration"}
    # codes with room for one set only, for two, and for three or more
    assert most_sets == {1, 2, 3} and 1 in ds


def test_information_sets_on_a_mid_size_binary_code():
    # a seeded [24,12]_F2: the plain call answers by information sets with
    # enumeration's d, visiting a fraction of its 4095 messages
    from lcdkit import codes
    ctx = parse_field("2")
    rng = random.Random(24)
    C = random_code(ctx, 24, 12, rng)
    res = C.distance()
    d, messages = codes._distance_by_enumeration(C.G.rows(), ctx, 24)
    assert res[:3] == (d, EXACT, None)
    assert res.method == "information_sets" and res.work < messages // 4


@pytest.mark.slow
def test_information_sets_on_a_48_24_binary_code():
    # a seeded [48,24]_F2: 2^24 - 1 messages for the full enumeration
    # (about 8 s), while the information sets answer in well under one
    from lcdkit import codes
    ctx = parse_field("2")
    rng = random.Random(48)
    C = random_code(ctx, 48, 24, rng)
    start = time.perf_counter()
    res = C.distance()
    took = time.perf_counter() - start
    d, messages = codes._distance_by_enumeration(C.G.rows(), ctx, 48)
    assert messages == (1 << 24) - 1
    assert res[:3] == (d, EXACT, None)
    assert res.method == "information_sets" and res.work < messages // 100
    assert took < 2


def _subsets_oracle(H, n, budget):
    """The from-scratch column-subset scan: every subset in
    ``combinations`` order, each eliminated on its own.  Returns
    (w, certified, subsets charged)."""
    ctx, rows_h = H.ctx, H.r
    if rows_h == 0:
        return 1, True, 0
    cols = [H.col(j) for j in range(n)]
    ops = charged = 0
    for w in range(1, n + 1):
        if w > rows_h:
            return w, True, charged
        for subset in combinations(range(n), w):
            ops += rows_h * w * w
            if ops > budget:
                return w, False, charged
            charged += 1
            if _cols_dependent(ctx, [cols[j] for j in subset], rows_h):
                return w, True, charged
    return n + 1, True, charged


def _cols_dependent(ctx, cols, height):
    w = len(cols)
    rows = [[col[i] for col in cols] for i in range(height)]
    rank = 0
    for col in range(w):
        pivot = next((i for i in range(rank, height) if rows[i][col]), None)
        if pivot is None:
            return True
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ctx.inv(rows[rank][col])
        for i in range(rank + 1, height):
            if rows[i][col]:
                f = ctx.mul(rows[i][col], inv)
                rows[i] = [ctx.sub(a, ctx.mul(f, b))
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return False


@pytest.mark.parametrize("desc", ["2", "5", "13", "4", "8", "16", "9", "25",
                                  "1031"])
def test_column_subsets_match_from_scratch_oracle(desc):
    # 1031 > 2^10: the tables' rows are computed through ctx.add/mul
    from lcdkit import codes
    ctx = parse_field(desc)
    rng = random.Random(f"subsets:{desc}")

    def budgets(r):
        # from none at all to past the whole scan, so many stop part-way
        # through a size
        return (codes.DEFAULT_DISTANCE_BUDGET, 0, r, rng.randrange(1, 100),
                rng.randrange(100, 1000), rng.randrange(1000, 10000))

    cases = []
    for trial in range(40):
        n = rng.randrange(2, 11)
        r = rng.randrange(1, n + 1)
        rows = [[rng.randrange(ctx.q) if rng.random() < 0.8 else 0
                 for _ in range(n)] for _ in range(r)]
        # a zero column, a repeated row (rank below r) or a scaled column
        # in three of four trials; the fourth is left as drawn
        kind = trial % 4
        if kind == 0:
            zero = rng.randrange(n)
            for row in rows:
                row[zero] = 0
        elif kind == 1 and r > 1:
            rows[-1] = list(rows[0])
        elif kind == 2:
            a, b = rng.sample(range(n), 2)
            c = rng.randrange(1, ctx.q)
            for row in rows:
                row[b] = ctx.mul(c, row[a])
        cases.append((rows, n, budgets(r)))
    # longer scans: n = 11..14 and 5 to 8 rows, one column a combination
    # of four others, so d <= 5 and several passes walk from the root
    for n in range(11, 15):
        r = rng.randrange(5, 9)
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(r)]
        *sources, target = rng.sample(range(n), 5)
        scales = [rng.randrange(1, ctx.q) for _ in sources]
        for row in rows:
            row[target] = 0
            for j, c in zip(sources, scales):
                row[target] = ctx.add(row[target], ctx.mul(c, row[j]))
        cases.append((rows, n, budgets(r)))
    for rows, n, budgets in cases:
        H = MatrixFq.from_rows(ctx, rows)
        for budget in budgets:
            assert (codes._distance_by_column_subsets(H, n, budget)
                    == _subsets_oracle(H, n, budget)), (rows, budget)


def test_deep_column_subset_scans():
    # two scans 10 and 12 passes deep, each certified three ways
    from lcdkit.codes import (DEFAULT_DISTANCE_BUDGET,
                              _distance_by_column_subsets,
                              _distance_by_enumeration)
    # GRS [15,5]_F16: MDS, so d = n - k + 1 = 11
    grs = grs_code(parse_field("16"), 15, 5, random.Random("deep:grs"))
    # the worked [16,4,12]_F11 product code under a seeded column order
    ex = product_example()
    G = mplcd_build(ex["components"], ex["base"], ex["scalars"]).G
    order = list(range(G.c))
    random.Random("deep:product").shuffle(order)
    product = LinearCode.from_basis(G.take_cols(order))
    for code, d in ((grs, 15 - 5 + 1), (product, ex["expected"]["d"])):
        H = code.dual().G
        assert H.r >= 10
        assert (_distance_by_column_subsets(H, code.n, DEFAULT_DISTANCE_BUDGET
                                            )[:2] == (d, True))
        assert _distance_by_enumeration(code.G.rows(), code.ctx,
                                        code.n)[0] == d


def test_subset_scan_results_pinned():
    # whole results, work included, of codes the chooser sends to the scan;
    # 16^7 messages lie past the default budget, and the last budget stops
    # the scan part-way through its fifth pass
    from lcdkit.codes import DEFAULT_DISTANCE_BUDGET, DistanceResult
    F16 = parse_field("16")
    for build, budget, want in (
            (lambda: hamming(parse_field("2"), 4), DEFAULT_DISTANCE_BUDGET,
             DistanceResult(3, EXACT, None, "subsets", 121)),
            (lambda: hamming(parse_field("3"), 3), DEFAULT_DISTANCE_BUDGET,
             DistanceResult(3, EXACT, None, "subsets", 92)),
            (lambda: random_code(F16, 14, 7, random.Random("pin:0")),
             DEFAULT_DISTANCE_BUDGET,
             DistanceResult(5, EXACT, None, "subsets", 2514)),
            (lambda: random_code(F16, 14, 7, random.Random("pin:1")),
             DEFAULT_DISTANCE_BUDGET,
             DistanceResult(6, EXACT, None, "subsets", 4522)),
            (lambda: random_code(F16, 14, 7, random.Random("pin:1")), 3 * 10**5,
             DistanceResult(5, LOWER_BOUND, 11, "subsets", 2397))):
        assert build().distance(budget) == want


def _answers_mds_question(C, budget, t):
    """Whether a threshold call distance(budget, at_least=t) asks the
    Singleton certificate on G: t = n - k + 1, q^k <= budget and the
    charge C(n, k) k^3 fits, whatever enumeration would cost."""
    q, n, k = C.ctx.q, C.n, C.k
    return (t == n - k + 1 and q ** k <= budget
            and comb(n, k) * k ** 3 <= budget)


@pytest.mark.parametrize("desc", ["2", "5", "16", "25", "1031", "2^11"])
def test_distance_at_least(desc):
    # 1031 and 2^11 lie above the table cap
    from lcdkit.codes import DEFAULT_DISTANCE_BUDGET
    ctx = parse_field(desc)
    rng = random.Random(f"at_least:{desc}")
    k_max = 1
    while ctx.q ** (k_max + 1) <= DEFAULT_DISTANCE_BUDGET and k_max < 4:
        k_max += 1
    methods, mds_methods = set(), set()
    # the last code is [9, k_max]: over GF(2) its 15 messages are fewer
    # than the certificate's 126 subsets, and the certificate still
    # answers its MDS question, since the rule does not price it
    for trial in range(13):
        n = rng.randrange(2, 10) if trial < 12 else 9
        k = rng.randrange(1, min(n - 1, k_max) + 1) if trial < 12 else k_max
        G = random_code(ctx, n, k, rng).G
        # the chooser may answer a plain call by either strategy, so the
        # results are compared on (value, status, upper)
        exact = LinearCode.from_basis(G).distance()[:3]
        d = exact[0]
        assert exact[1] == EXACT
        for t in range(n + 2):
            C = LinearCode.from_basis(G)
            res = C.distance(at_least=t)
            if t > 0 and k < n:
                # a threshold call at t = n - k + 1 asks the certificate
                # when its charge fits; every other one enumerates
                if _answers_mds_question(C, DEFAULT_DISTANCE_BUDGET, t):
                    assert C._plan(DEFAULT_DISTANCE_BUDGET, t) == (None, "G")
                    assert res.method == "singleton"
                    assert res.work == comb(n, k)
                else:
                    assert C._plan(DEFAULT_DISTANCE_BUDGET, t) == (
                        "enumeration", None)
                    assert res.method == "enumeration"
                    assert 0 < res.work <= (ctx.q ** k - 1) // (ctx.q - 1)
                methods.add(res.method)
                if t == n - k + 1:
                    mds_methods.add(res.method)
            if d >= t:
                assert res[:3] == exact
            else:
                assert res.status == LOWER_BOUND and res.value == 1
                assert d <= res.upper < t
                if res.method == "singleton":
                    # the proven bound, not a codeword found
                    assert res.upper == n - k
                # the early answer is not cached; the exact one still comes
                assert C._dist is None and C.distance()[:3] == exact
            # a cached exact distance answers every threshold unchanged
            assert C.distance(at_least=t) is C._dist
            assert C._dist[:3] == exact
        if k < n:
            # at the least budget that lets enumeration run, the
            # certificate's charge C(n, k) k^3 must fit it too
            t, budget = n - k + 1, ctx.q ** k
            C = LinearCode.from_basis(G)
            res = C.distance(budget, at_least=t)
            assert res.method == ("singleton"
                                  if _answers_mds_question(C, budget, t)
                                  else "enumeration")
            assert (res.status == EXACT) == (d >= t)
            mds_methods.add(res.method)
            # the column-subset path ignores the threshold
            budget -= 1
            by_subsets = LinearCode.from_basis(G).distance(budget)
            assert LinearCode.from_basis(G).distance(
                budget, at_least=n + 1) == by_subsets
    assert methods == {"enumeration", "singleton"}
    if desc == "2":
        assert mds_methods == {"enumeration", "singleton"}


@pytest.mark.parametrize("desc", ["2", "3", "4", "7", "16", "25", "1031",
                                  "2^11"])
def test_mds_question_matches_enumeration(desc, monkeypatch):
    # distance(at_least=n-k+1) decides d >= n - k + 1 as the enumeration
    # does, on GRS codes (MDS), GRS codes with a column zeroed or repeated
    # (not MDS) and random codes; the dual is never built for it
    from lcdkit import codes
    ctx = parse_field(desc)
    rng = random.Random(f"mds-question:{desc}")
    k_max = 1
    while ctx.q ** (k_max + 1) <= 1 << 16 and k_max < 5:
        k_max += 1
    monkeypatch.setattr(LinearCode, "dual", None)
    answers = set()
    for trial in range(40):
        kind = trial % 4
        # a GRS code needs n distinct points
        n = rng.randrange(2, (9 if kind == 3 else min(ctx.q, 9)) + 1)
        k = rng.randrange(1, min(n - 1, k_max) + 1)
        if kind == 3:
            G = random_code(ctx, n, k, rng).G
        else:
            G = grs_code(ctx, n, k, rng).G
            if kind:
                rows = [list(row) for row in G.rows()]
                a, b = rng.sample(range(n), 2)
                for row in rows:
                    row[b] = 0 if kind == 1 else row[a]
                G = MatrixFq.from_rows(ctx, rows)
                if G.rank() < k:
                    continue
        t = n - k + 1
        res = LinearCode.from_basis(G).distance(at_least=t)
        w, _ = codes._distance_by_enumeration(G.rows(), ctx, n, t)
        assert (res.status == EXACT and res.value >= t) == (w >= t), G
        if w >= t:
            assert res[:3] == (t, EXACT, None)
        answers.add((res.method, w >= t))
    assert ("singleton", True) in answers and ("singleton", False) in answers


def test_distance_budget_degrades_to_bound(F2):
    C = ham74(F2)
    res = C.distance(budget=1)
    assert res.status == LOWER_BOUND
    assert res.value <= 3 <= res.upper


def test_zero_code_has_no_distance(F2):
    with pytest.raises(EmptyResult):
        LinearCode.zero(F2, 4).distance()


def test_classify_requires_exact(F2):
    C = ham74(F2)
    C.distance(budget=1)               # caches only a lower bound
    with pytest.raises(DistanceNotExact):
        C.classify()
    C.distance()
    assert C.classify() == "almost_MDS"   # d = 3 = n - k
    mds = LinearCode.from_basis(MatrixFq.from_rows(F2, [[1, 1]]))
    mds.distance()
    assert mds.classify() == "MDS"
    # [8,4,3]: gap 2 below Singleton
    ext = LinearCode.from_basis(ham74(F2).G.hstack(
        MatrixFq.zeros(F2, 4, 1)))
    ext.distance()
    assert ext.classify() == "other"


def test_singleton_bound(F7, rng):
    for _ in range(30):
        k = rng.randrange(1, 5)
        C = random_code(F7, 6, k, rng)
        assert C.distance().value <= C.n - C.k + 1


def test_encode_and_codewords(F3):
    C = LinearCode.from_basis(MatrixFq.from_rows(F3, [[1, 0, 2], [0, 1, 1]]))
    words = set(C.codewords())
    assert len(words) == 9
    assert C.encode([1, 2]) in words


def test_record_round_trip(F7, rng):
    C = random_lcd_code(F7, 5, 2, rng)
    rec = CodeRecord.from_code(C, "rows", {"kind": "rows", "note": 1})
    text = rec.to_json()
    again = CodeRecord.from_json(text)
    assert again == rec
    assert again.code() == C
    with pytest.raises(ParseError):
        CodeRecord.from_json("{not json")
    with pytest.raises(ParseError):
        CodeRecord.from_json(json.dumps({"field": "7"}))
    # valid JSON of the wrong shape: not an object, or a field of the
    # wrong type, which would otherwise break RecordStore.save's sort
    with pytest.raises(ParseError):
        CodeRecord.from_json("5")
    with pytest.raises(ParseError):
        CodeRecord.from_json(json.dumps({**json.loads(text), "n": "x"}))


def test_record_field_table_follows_the_dataclass():
    from dataclasses import fields
    from lcdkit.codes import _RECORD_FIELDS
    assert list(_RECORD_FIELDS) == [f.name for f in fields(CodeRecord)]


_RECORD = {"field": "7", "n": 3, "k": 1, "d": 3, "d_status": "exact",
           "tag": "rows", "provenance": {"kind": "rows"},
           "matrix": "7 1 3\n1 2 3\n", "timestamp": 0}
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(sorted(_RECORD))),
       st.dictionaries(st.sampled_from(sorted(_RECORD)), _json_values,
                       max_size=3),
       st.integers(0, 200), st.text(max_size=20), wide_orders)
@example(set(), {}, 200, "1" * 5000, 7)      # too long an integer
@example(set(), {}, 200, "[" * 100_000, 7)   # nested too deep
@example(set(), {}, 200, "", (1 << 61) - 1)  # too large to trial-divide
def test_record_line_fuzz(dropped, changed, cut, noise, q):
    # the field order q names the record's field and its matrix's; a
    # record that loads either builds its generator or refuses it with an
    # LcdError
    base = {**_RECORD, "field": str(q), "matrix": f"{q} 1 3\n1 2 3\n"}
    raw = {name: changed.get(name, value) for name, value in base.items()
           if name not in dropped}
    for line in (json.dumps(raw), json.dumps(raw)[:cut], noise):
        try:
            rec = CodeRecord.from_json(line)
        except LcdError:
            continue
        assert CodeRecord.from_json(rec.to_json()) == rec
        try:
            G = rec.generator()
        except LcdError:
            continue
        assert MatrixFq.from_text(G.to_text()) == G


def test_store_dedupe_and_determinism(tmp_path, F5, rng):
    path = tmp_path / "records.jsonl"
    store = RecordStore(path)
    weak = CodeRecord(field="5", n=6, k=2, d=3, d_status=EXACT,
                      tag="rows", provenance={}, matrix="5 1 1\n1\n")
    strong = CodeRecord(field="5", n=6, k=2, d=4, d_status=EXACT,
                        tag="rows", provenance={}, matrix="5 1 1\n2\n")
    bound = CodeRecord(field="5", n=6, k=2, d=5, d_status=LOWER_BOUND,
                       tag="rows", provenance={}, matrix="5 1 1\n3\n")
    assert store.add(weak)
    assert store.add(strong)          # larger exact d wins
    assert not store.add(bound)       # bound never beats exact
    assert not store.add(strong)      # ties keep the earlier record
    assert store.get("5", 6, 2).d == 4
    store.save()
    first = path.read_bytes()
    again = RecordStore(path)
    again.save()
    assert path.read_bytes() == first


def test_store_sorted_output(tmp_path):
    path = tmp_path / "r.jsonl"
    store = RecordStore(path)
    for n in (9, 3, 6):
        store.add(CodeRecord(field="2", n=n, k=1, d=1, d_status=EXACT,
                             tag="rows", provenance={},
                             matrix="2 1 1\n1\n"))
    store.save()
    ns = [json.loads(line)["n"] for line in path.read_text().splitlines()]
    assert ns == sorted(ns)


def test_store_save_failing_part_way_keeps_old_records(tmp_path,
                                                        monkeypatch):
    path = tmp_path / "r.jsonl"
    store = RecordStore(path)
    store.add(CodeRecord(field="2", n=3, k=1, d=3, d_status=EXACT,
                         tag="rows", provenance={}, matrix="2 1 3\n1 1 1\n"))
    store.save()
    before = path.read_bytes()
    store.add(CodeRecord(field="2", n=4, k=1, d=4, d_status=EXACT,
                         tag="rows", provenance={},
                         matrix="2 1 4\n1 1 1 1\n"))

    def torn_write(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(type(path), "write_text", torn_write)
    with pytest.raises(OSError):
        store.save()
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert len(RecordStore(path)) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]
    store.save()
    assert len(RecordStore(path)) == 2
