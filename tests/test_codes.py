"""Linear code core: duality, hull, distance strategies, record store."""

import json
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcdkit import (EXACT, LOWER_BOUND, CodeRecord, LinearCode, MatrixFq,
                    RecordStore, field_create, parse_field, rs_pipeline)
from lcdkit.errors import (DistanceNotExact, EmptyResult, LcdError,
                           ParseError, ZeroMatrix)

from conftest import random_code, random_lcd_code, random_matrix


def ham74(F2):
    return LinearCode.from_basis(MatrixFq.from_rows(F2, [
        [1, 0, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 1, 1]]))


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


def test_hull_from_brute_force(F3, rng):
    for _ in range(40):
        C = random_code(F3, 5, rng.randrange(1, 4), rng)
        hull = C.brute_hull()
        assert hull.r == C.hull_dim()
        assert C.is_lcd() == (hull.r == 0)


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
        by_enum = _distance_by_enumeration(C.G.rows(), C.ctx, C.n)
        H = C.dual().G
        by_cols, exact = _distance_by_column_subsets(H, C.n, 1 << 26)
        assert exact and by_enum == by_cols
    assert (rec.n, rec.k, rec.d) == (8, 6, 3) == (C.n, C.k, by_enum)


def _enumeration_reference(rows, ctx, n, at_least):
    """The enumeration's visiting order on plain tuples through ctx.add and
    ctx.mul: lead row pinned to 1, the rows after it by coefficient 0 first
    and then 1..q-1, the last row's multiples in one loop at each leaf that
    breaks at the first weight below both at_least and the leaf's best."""
    k, best = len(rows), n + 1

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
            if lead < k - 1:
                for c in range(1, ctx.q):
                    x = weight(axpy(vec, c, rows[-1]))
                    if x < w:
                        w = x
                        if x < at_least:
                            break
            if w < best:
                best = w
                if best < at_least:
                    return best
    return best


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
            w = codes._distance_by_enumeration(rows, ctx, n, t)
            assert w == _enumeration_reference(rows, ctx, n, t), (rows, t)
            assert w == d if d >= t else d <= w < t, (rows, t)


def _subsets_oracle(H, n, budget):
    """The from-scratch column-subset scan: every subset in
    ``combinations`` order, each eliminated on its own."""
    ctx, rows_h = H.ctx, H.r
    if rows_h == 0:
        return 1, True
    cols = [H.col(j) for j in range(n)]
    ops = 0
    for w in range(1, n + 1):
        if w > rows_h:
            return w, True
        for subset in combinations(range(n), w):
            ops += rows_h * w * w
            if ops > budget:
                return w, False
            if _cols_dependent(ctx, [cols[j] for j in subset], rows_h):
                return w, True
    return n + 1, True


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
    from lcdkit.codes import (DEFAULT_DISTANCE_BUDGET,
                              _distance_by_column_subsets)
    ctx = parse_field(desc)
    rng = random.Random(f"subsets:{desc}")
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
        H = MatrixFq.from_rows(ctx, rows)
        # budgets from none at all to past the whole scan, so many stop
        # part-way through a size
        for budget in (DEFAULT_DISTANCE_BUDGET, 0, r, rng.randrange(1, 100),
                       rng.randrange(100, 1000), rng.randrange(1000, 10000)):
            assert (_distance_by_column_subsets(H, n, budget)
                    == _subsets_oracle(H, n, budget)), (rows, budget)


@pytest.mark.parametrize("desc", ["2", "5", "16", "25", "1031", "2^11"])
def test_distance_at_least(desc):
    # 1031 and 2^11 lie above the table cap
    from lcdkit.codes import DEFAULT_DISTANCE_BUDGET
    ctx = parse_field(desc)
    rng = random.Random(f"at_least:{desc}")
    k_max = 1
    while ctx.q ** (k_max + 1) <= DEFAULT_DISTANCE_BUDGET and k_max < 4:
        k_max += 1
    for _ in range(12):
        n = rng.randrange(2, 10)
        G = random_code(ctx, n, rng.randrange(1, min(n - 1, k_max) + 1),
                        rng).G
        exact = LinearCode.from_basis(G).distance()
        d = exact.value
        assert exact.status == EXACT
        for t in range(n + 2):
            C = LinearCode.from_basis(G)
            res = C.distance(at_least=t)
            if d >= t:
                assert res == exact
            else:
                assert res.status == LOWER_BOUND and res.value == 1
                assert d <= res.upper < t
                # the early answer is not cached; the exact one still comes
                assert C._dist is None and C.distance() == exact
            # a cached exact distance answers every threshold unchanged
            assert C.distance(at_least=t) == exact == C._dist
        # the column-subset path ignores the threshold
        budget = ctx.q ** G.r - 1
        if G.r < n:
            by_subsets = LinearCode.from_basis(G).distance(budget)
            assert LinearCode.from_basis(G).distance(
                budget, at_least=n + 1) == by_subsets


def test_distance_budget_degrades_to_bound(F2):
    C = ham74(F2)
    res = C.distance(budget=1)
    assert res.status == LOWER_BOUND
    assert res.value <= 3 <= res.upper


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


def test_shorten_and_puncture(F2):
    C = ham74(F2)
    S = C.shorten([0])
    assert S.n == 6 and S.k == 3
    P = C.puncture([6])
    assert P.n == 6 and P.k == 4
    with pytest.raises(EmptyResult):
        LinearCode.from_basis(
            MatrixFq.from_rows(F2, [[1, 1]])).shorten([0, 1])


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
       st.integers(0, 200), st.text(max_size=20))
@example(set(), {}, 200, "1" * 5000)       # too long an integer
@example(set(), {}, 200, "[" * 100_000)    # nested too deep
def test_record_line_fuzz(dropped, changed, cut, noise):
    raw = {name: changed.get(name, value) for name, value in _RECORD.items()
           if name not in dropped}
    for line in (json.dumps(raw), json.dumps(raw)[:cut], noise):
        try:
            rec = CodeRecord.from_json(line)
        except LcdError:
            continue
        assert CodeRecord.from_json(rec.to_json()) == rec


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
