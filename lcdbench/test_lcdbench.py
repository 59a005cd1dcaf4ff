"""Tests of the benchmark itself: the independent oracle, the output
checks (each must accept lcdkit's real output and reject a corrupted
copy), the host-speed scaling, the tracing counts, the refusal to run without sources, and the
compare command.

    PYTHONPATH=src python -m pytest -q lcdbench/test_lcdbench.py
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(HERE), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import compare  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def lk():
    return workloads.lcdkit_modules(importlib.import_module("lcdkit"))


def prepare(lk, name, seed, scratch, keep=None, limit=None):
    """Set up a workload, keeping the first ``limit`` jobs ``keep`` accepts."""
    generate, setup = workloads.WORKLOADS[name]
    inp = workloads.Inputs(seed, ROOT, scratch)
    generate(inp)
    prepared = setup(lk, inp)
    if keep is not None:
        prepared.jobs = [j for j in prepared.jobs if keep(j.name)][:limit]
    assert prepared.jobs
    return prepared


def job_named(prepared, prefix):
    return next(j for j in prepared.jobs if j.name.startswith(prefix))


# ---------------------------------------------------------------------------
# the oracle on its own

@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 32])
def test_oracle_field_axioms(q):
    F = oracle.field_for(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_oracle_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        oracle.Field(2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2
    with pytest.raises(ValueError):
        oracle.Field(3, (2, 0, 1))  # x^2 + 2 = (x + 1)(x + 2)


@pytest.mark.parametrize("n,q", [(2, 3), (2, 5), (2, 7), (3, 3)])
def test_orthogonal_group_order_formula_by_counting(n, q):
    F = oracle.field_for(q)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    count = 0
    for entries in itertools.product(range(q), repeat=n * n):
        rows = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
        count += F.gram(rows) == ident
    assert count == oracle.orthogonal_group_order(n, q)


def test_oracle_distance_and_hull_by_exhaustion():
    rng = random.Random(5)
    for q, n, k in [(2, 8, 3), (3, 6, 2), (4, 5, 2), (5, 5, 2)]:
        F = oracle.field_for(q)
        for _ in range(8):
            rows = workloads.random_rows(F, k, n, rng)
            weights = []
            for msg in itertools.product(range(q), repeat=k):
                if any(msg):
                    word = [0] * n
                    for c, row in zip(msg, rows):
                        word = [F.add(x, F.mul(c, y)) for x, y in zip(word, row)]
                    weights.append(n - word.count(0))
            assert F.min_distance(rows) == min(weights)
            assert F.hull_dim(rows) == F.brute_hull_dim(rows)
    F = oracle.field_for(3)
    for _ in range(8):
        a_cols = [[rng.randrange(3) for _ in range(3)] for _ in range(5)]
        g, h = workloads._from_parity_check(F, a_cols, 3, rng)
        assert F.min_dependent_columns(h) == F.min_distance(g)


# ---------------------------------------------------------------------------
# each check accepts real output and rejects a corrupted copy

def test_certify_check(lk, tmp_path):
    prepared = prepare(lk, "certify", 3, tmp_path,
                       keep=lambda n: n in ("product[16,4]_F11", "random[12,5]_F5"))
    for job, q in zip(prepared.jobs, (11, 5)):
        k, dist, hull, lcd, canon = out = job.run()
        job.check(out)
        assert dist.value >= 2
        rows = [list(r) for r in canon]
        rows[0][-1] = (rows[0][-1] + 1) % q
        for bad in ((k, dist, hull, lcd, rows),
                    (k, dist._replace(value=dist.value + 1), hull, lcd, canon),
                    (k, dist._replace(value=dist.value - 1), hull, lcd, canon),
                    (k, dist, hull + 1, lcd, canon)):
            with pytest.raises(CheckFailed):
                job.check(bad)


def test_search_check(lk, tmp_path):
    prepared = prepare(lk, "search", 3, tmp_path)
    for prefix, q in (("search[6,2,5]_F7", 7), ("search[8,4,4]_F4", 4)):
        job = job_named(prepared, prefix)
        rec = job.run()
        job.check(rec)
        head, rows = workloads.parse_matrix(rec.matrix)
        rows[1][2] = (rows[1][2] + 1) % q
        changed = dataclasses.replace(rec, matrix=workloads.matrix_text(head, rows))
        for bad in (changed, dataclasses.replace(rec, d=rec.d + 1), None):
            with pytest.raises(CheckFailed):
                job.check(bad)


def test_closure_check(lk, tmp_path):
    prepared = prepare(lk, "closure", 3, tmp_path,
                       keep=lambda n: n in ("closure n=4 q=3", "closure n=4 q=4"))
    for job in prepared.jobs:
        order, complete = job.run()
        job.check((order, complete))
        for bad in ((order + 1, True), (order * 2, True), (order, False)):
            with pytest.raises(CheckFailed):
                job.check(bad)


def _flip_matrix_digit(blob: bytes) -> bytes:
    """Change the first entry of the first matrix row in a store."""
    at = blob.index(b'"matrix":"')
    at = blob.index(b"\\n", at) + 2
    digit = blob[at:at + 1]
    return blob[:at] + (b"1" if digit == b"0" else b"0") + blob[at + 1:]


def test_build_store_check(lk, tmp_path):
    prepared = prepare(lk, "build", 3, tmp_path, keep=lambda n: n in (
        "product [16,4]_F11", "project F4/2 [5,2]", "rs-pipeline F3^2 n=8 k=3",
        "verify verify0.txt", "store replay"))
    *verbs, replay = prepared.jobs
    store = tmp_path / "store.jsonl"
    for corrupt in (None, _flip_matrix_digit, lambda b: b.replace(b'"timestamp":0', b'"timestamp":1', 1)):
        prepared.begin_pass()
        for job in verbs:
            job.check(job.run())
        if corrupt is None:
            replay.check(replay.run())
            continue
        store.write_bytes(corrupt(store.read_bytes()))
        with pytest.raises(CheckFailed):
            replay.check(replay.run())
    prepared.begin_pass()
    product = verbs[0]
    status, text = product.run()
    with pytest.raises(CheckFailed):
        product.check((1, text))


# ---------------------------------------------------------------------------
# host-speed scaling

def test_scaled_time_divides_out_the_host_speed():
    sp = hostspeed.SpeedSampler()
    # a probe every 0.1 s, each taking twice the reference time: half speed
    probe = 2 * hostspeed.REF_S
    sp.starts = [i * 0.1 for i in range(100)]
    sp.probe_s = [probe] * 100
    sp.ends = [t + probe for t in sp.starts]
    # the probes at 2.1 .. 5.0 s fall inside; their time is not the program's
    assert sp.handler_time(2.05, 5.05) == pytest.approx(30 * probe)
    assert sp.scaled(2.05, 5.05) == pytest.approx((3.0 - 30 * probe) / 2)
    # a short interval borrows the speed of the nearest probes
    sp.probe_s[50:] = [probe / 4] * 50  # twice the reference speed from 5 s on
    assert sp.scaled(7.01, 7.02) == pytest.approx(0.01 * 2)


def test_speed_sampler_probes_while_active():
    with hostspeed.SpeedSampler(period=0.005) as sp:
        a = bench.time.perf_counter()
        while bench.time.perf_counter() - a < 0.2:
            hostspeed.probe()
        b = bench.time.perf_counter()
    taken = len(sp.probe_s)
    assert taken >= 5
    bench.time.sleep(0.02)
    assert len(sp.probe_s) == taken, "the timer still fires after the block"
    assert 0 < sp.handler_time(a, b) < b - a
    assert sp.scaled(a, b) > 0


# ---------------------------------------------------------------------------
# tracing

TRACED_SUBSETS = {
    "search": lambda n: n.startswith(("search[6,2,5]_F7", "search[8,4,4]_F4")),
    "certify": lambda n: n.startswith(("random", "hamming[15", "grs[12,8]")),
    "closure": lambda n: n in ("closure n=4 q=3", "closure n=4 q=4"),
    "build": lambda n: not n.startswith(("rs-pipeline F3^3", "rs-pipeline F5^2")),
}


def _traced_counts(lk, workload, scratch):
    prepared = prepare(lk, workload, 7, scratch, keep=TRACED_SUBSETS[workload], limit=30)
    tracer = tracing.Tracer(lk.pkg)
    res = bench.run_passes(prepared, 0.0, tracer)
    assert not res["problems"] and res["failed"] == 0
    counts = [name for name, unit in tracing.per_layer_metric_names() if unit == "count"]
    first, second = ({n: p[n] for n in counts} for p in res["per_pass"])
    assert first == second, "counts differ between traced passes of one run"
    values = tracing.combine(res["per_pass"], tracing.setup_metrics(tracer),
                             res["traced"], res["untraced"])
    assert set(values) == {n for n, _u in tracing.per_layer_metric_names()}
    return first


@pytest.mark.parametrize("workload", sorted(TRACED_SUBSETS))
def test_traced_counts_repeat(lk, tmp_path, workload):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _traced_counts(lk, workload, tmp_path / "a")
    b = _traced_counts(lk, workload, tmp_path / "b")
    assert a == b
    expected_nonzero = {
        "search": ("orthogen.walk_calls", "construct.search_trials",
                   "construct.search_distance_calls", "codes.enum_messages"),
        "certify": ("codes.subsets_calls", "codes.enum_messages", "matfq.rref_calls",
                    "matfq.det_calls"),
        "closure": ("orthogen.closure_states",),
        "build": ("cli.main_calls", "codes.store_bytes", "gf.arith_calls"),
    }[workload]
    assert all(a[name] > 0 for name in expected_nonzero), a
    if workload == "closure":
        repeat = {(n, q): r for n, q, r in workloads.CLOSURE_ROWS}
        # |O_4(3)| = 384 and |O_4(4)| = 3840 states, each closure run repeat times a pass
        assert a["orthogen.closure_states"] == repeat[4, "3"] * 384 + repeat[4, "4"] * 3840
        assert a["codes.distance_calls"] == 0 and a["matfq.rref_calls"] == 0
    if workload == "search":
        assert a["codes.subsets_calls"] == 0 and a["codes.store_bytes"] == 0


def test_tracer_restores_the_program(lk):
    before = lk.codes.LinearCode.distance, lk.construct.search_random_lcd, lk.gf.FieldCtx.add
    tracer = tracing.Tracer(lk.pkg)
    tracer.install()
    assert lk.codes.LinearCode.distance is not before[0]
    tracer.uninstall()
    after = lk.codes.LinearCode.distance, lk.construct.search_random_lcd, lk.gf.FieldCtx.add
    assert after == before


# ---------------------------------------------------------------------------
# the command and the compare tool

def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "lcdbench",
                    ignore=shutil.ignore_patterns("results", "scratch", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "lcdbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _fake_results(where: Path, values: dict[str, list[float]], failed: int = 0) -> None:
    where.mkdir()
    for i in range(len(values["pass_s"])):
        metrics = {k: {"value": v[i], "unit": "s"} for k, v in values.items()}
        detail = {"meta": {"workload": "search", "seed": i, "trace": 0},
                  "result": {"correct": True, "attempted": 100, "failed": failed,
                             "metrics": metrics}}
        (where / f"r{i}.json").write_text(json.dumps(detail))


def test_compare_flags_a_gap_beyond_the_bound(tmp_path, capsys):
    names = ("pass_s", "job_geomean_s", "setup_s", "peak_rss_mb")
    base = {n: [1.0, 1.01, 0.99, 1.0] for n in names}
    _fake_results(tmp_path / "base", base)
    _fake_results(tmp_path / "same", {n: [v * 1.01 for v in vs] for n, vs in base.items()})
    slow = dict(base, pass_s=[2.0, 2.0, 2.1, 1.9])
    _fake_results(tmp_path / "slow", slow)
    _fake_results(tmp_path / "failing", base, failed=1)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "slow")]) == 1
    assert "EXCEEDS" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "failing")]) == 1


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == tracing.per_layer_metric_names()
    res = {"job_times": [[0.5], [0.25]], "untraced": [1.0]}
    reported = {name: unit for name, (_v, unit) in bench.end_to_end(res, [0.1]).items()}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
