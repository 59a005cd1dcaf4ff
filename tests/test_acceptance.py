"""End-to-end acceptance runs, one test per criterion.

Each test prints a single summary line with the measured numbers; the
pytest verdict for the test is the pass/fail line for that criterion.
"""

import random
import resource
import time

import pytest

from lcdkit import (EXACT, MatrixFq, classical_orthogonal_order,
                    cyclic_mds_self_orthogonal, extend_by_two, field_create,
                    generator_set, group_closure_order, lcd_from_rows,
                    matrix_product_code, mplcd_build, parse_field,
                    project_to_subfield, random_orthogonal, rs_pipeline,
                    search_random_lcd, tower_create)
from lcdkit.codes import RecordStore
from lcdkit.errors import NoIsotropicPair
from lcdkit.fixtures import product_example

from conftest import random_code, random_lcd_code


def _say(line):
    print(line)


def test_criterion_01_group_closure_orders():
    targets = [("3", 4, 384), ("4", 4, 3840), ("5", 4, 384),
               ("7", 4, 225792), ("8", 4, 258048), ("3", 5, 103680)]
    worst = 0.0
    for field, n, expected in targets:
        t0 = time.time()
        gens = generator_set(parse_field(field), n)
        order, complete = group_closure_order(gens)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert complete and order == expected, (field, n, order)
        assert dt < 300, f"closure for q={field} n={n} took {dt:.0f}s"
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
    assert rss_gb < 2, f"peak RSS {rss_gb:.2f} GB"
    _say(f"criterion 1 PASS: six closure orders exact, worst run "
         f"{worst:.1f}s, peak RSS {rss_gb:.2f} GB")


def test_criterion_02_classical_formula():
    checks = [(5, 3, 103680), (4, 5, 28800), (4, 7, 225792)]
    for n, q, expected in checks:
        assert classical_orthogonal_order(n, q) == expected
    _say("criterion 2 PASS: classical orders match at (5,3), (4,5), (4,7)")


def test_criterion_03_worked_product_example():
    ex = product_example()
    assert ex["base"].gram() == MatrixFq.identity(ex["ctx"], 4)
    t0 = time.time()
    code = mplcd_build(ex["components"], ex["base"], ex["scalars"])
    dist = code.distance()
    dt = time.time() - t0
    assert (code.n, code.k) == (16, 4)
    assert code.is_lcd()
    assert dist.status == EXACT and dist.value == 12
    assert dt < 1.0, f"took {dt:.2f}s"
    _say(f"criterion 3 PASS: [16,4,12]_F11 LCD rebuilt and verified "
         f"in {dt * 1000:.0f}ms")


def test_criterion_04_hull_oracle_equivalence():
    rng = random.Random(41)
    fields = [field_create(2), field_create(3), field_create(7),
              field_create(3, 2)]
    checked = 0
    for ctx in fields:
        for _ in range(125):
            n = rng.randrange(4, 8)
            k = rng.randrange(1, min(5, n))
            assert ctx.q ** k <= 1 << 16
            C = random_code(ctx, n, k, rng)
            hull = C.brute_hull()
            assert C.is_lcd() == (hull.r == 0)
            assert C.hull_dim() == hull.r
            checked += 1
    assert checked >= 500
    _say(f"criterion 4 PASS: is_lcd/hull_dim match brute force on "
         f"{checked} random codes, zero discrepancies")


def test_criterion_05_extension_property():
    rng = random.Random(52)
    checked = 0
    for ctx in (field_create(5), field_create(13)):
        for trial in range(250):
            A = random_orthogonal(ctx, 6, trial)
            k = rng.randrange(1, 6)
            C = lcd_from_rows(A, range(k))
            lam = [rng.randrange(ctx.q) for _ in range(k)]
            E = extend_by_two(C, lam)
            assert E.gram() == C.gram()
            assert E.is_lcd()
            checked += 1
    assert checked >= 500
    F7 = field_create(7)
    with pytest.raises(NoIsotropicPair):
        extend_by_two(lcd_from_rows(MatrixFq.identity(F7, 4), [0, 1]),
                      [1, 1])
    _say(f"criterion 5 PASS: gram preserved entrywise on {checked} "
         f"extensions over GF(5)/GF(13); GF(7) reports NoIsotropicPair")


def test_criterion_06_mplcd_biconditional():
    rng = random.Random(63)
    ctx = field_create(7)
    forward = backward = 0
    for trial in range(200):
        base = random_orthogonal(ctx, 3, trial)
        lam = [rng.randrange(1, 7) for _ in range(3)]
        comps = [random_lcd_code(ctx, 4, rng.randrange(1, 4), rng)
                 for _ in range(3)]
        assert mplcd_build(comps, base, lam).is_lcd()
        forward += 1
    for trial in range(200):
        base = random_orthogonal(ctx, 3, 1000 + trial)
        lam = [rng.randrange(1, 7) for _ in range(3)]
        comps = [random_lcd_code(ctx, 4, rng.randrange(1, 4), rng)
                 for _ in range(3)]
        while True:
            cand = random_code(ctx, 4, rng.randrange(1, 4), rng)
            if not cand.is_lcd():
                comps[rng.randrange(3)] = cand
                break
        a_bar = base.scale_rows(lam)
        assert not matrix_product_code(comps, a_bar).is_lcd()
        backward += 1
    _say(f"criterion 6 PASS: product LCD iff components LCD, "
         f"{forward}+{backward} trials, zero counterexamples")


def test_criterion_07_projection_biconditional():
    rng = random.Random(74)
    F2, F3 = field_create(2), field_create(3)
    towers = [tower_create(F2, 2), tower_create(F2, 3), tower_create(F3, 3)]
    total = 0
    for tower in towers:
        basis = tower.self_dual_basis()
        assert basis is not None
        for _ in range(100):
            k = rng.randrange(1, 4)
            C = random_code(tower, 4, k, rng)
            P = project_to_subfield(C, basis)
            assert P.is_lcd() == C.is_lcd()
            total += 1
    assert tower_create(F3, 2).self_dual_basis() is None
    _say(f"criterion 7 PASS: LCD preserved across projection on {total} "
         f"codes over three towers; GF(9)/GF(3) has no self-dual basis")


def test_criterion_08_rs_pipeline():
    grid = [((2, 4), 15, 7), ((3, 2), 8, 3), ((13, 1), 12, 5)]
    t0 = time.time()
    produced = 0
    for (p, m), n, k in grid:
        ctx = field_create(p, m)
        C = cyclic_mds_self_orthogonal(ctx, n, k)
        assert C.gram().is_zero()
        d = C.distance()
        assert d.status == EXACT and d.value == n - k + 1
        records = rs_pipeline(ctx, n, k)
        assert len(records) == k
        for k_prime, rec in zip(range(1, k + 1), records):
            assert (rec.n, rec.k, rec.d) == (n - k, k_prime,
                                             n - k + 1 - k_prime)
            assert rec.d_status == EXACT
            assert rec.provenance["m_gt_1"] == (m > 1)
            code = rec.code()
            assert code.is_lcd()
            produced += 1
    dt = time.time() - t0
    assert dt < 60, f"pipeline took {dt:.0f}s"
    _say(f"criterion 8 PASS: three cyclic pipelines, {produced} MDS LCD "
         f"codes verified in {dt:.1f}s")


SEARCH_TARGETS = [((7, 1), 6, 2, 5), ((2, 2), 8, 4, 4), ((11, 1), 5, 3, 3)]


def test_criterion_09_search_targets():
    worst = 0.0
    for (p, m), n, k, d in SEARCH_TARGETS:
        ctx = field_create(p, m)
        t0 = time.time()
        rec = search_random_lcd(ctx, n, k, d, budget=100_000, seed=0)
        dt = time.time() - t0
        worst = max(worst, dt)
        assert rec is not None, (p, m, n, k, d)
        assert rec.d == d and rec.d_status == EXACT
        code = rec.code()
        assert code.is_lcd()
        check = code.distance()
        assert check.status == EXACT and check.value == d
        assert dt < 600, f"search took {dt:.0f}s"
    _say(f"criterion 9 PASS: [6,2,5]_F7, [8,4,4]_F4, [5,3,3]_F11 all "
         f"found and verified, worst search {worst:.2f}s")


def test_criterion_10_determinism(tmp_path):
    def one_run(path):
        store = RecordStore(path)
        for (p, m), n, k, d in SEARCH_TARGETS:
            ctx = field_create(p, m)
            rec = search_random_lcd(ctx, n, k, d, budget=100_000, seed=0)
            store.add(rec)
        for rec in rs_pipeline(field_create(3, 2), 8, 3):
            store.add(rec)
        store.save()
        return path.read_bytes()

    first = one_run(tmp_path / "a.jsonl")
    second = one_run(tmp_path / "b.jsonl")
    assert first == second
    _say(f"criterion 10 PASS: identical seeds give byte-identical "
         f"record files ({len(first)} bytes)")
