"""Command-line behavior: output lines, exit codes, store determinism."""

import json

import pytest

from lcdkit import MatrixFq, field_create
from lcdkit.cli import main
from lcdkit.fixtures import product_example


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_order_fixture_match(capsys):
    code, out = run(capsys, "order", "--field", "3", "--n", "4")
    assert code == 0
    assert "order=384 complete=true" in out
    assert "T=384 O=1152 fixture=match" in out


def test_order_cap_incomplete(capsys):
    code, out = run(capsys, "order", "--field", "5", "--n", "4",
                    "--cap", "100")
    assert code == 0
    assert "complete=false" in out
    assert "fixture" not in out


def test_order_without_reference_row(capsys):
    code, out = run(capsys, "order", "--field", "3", "--n", "3")
    assert code == 0
    assert "order=6 complete=true" in out
    assert "fixture=none" in out


def test_verify_reports(tmp_path, capsys):
    ex = product_example()
    from lcdkit import mplcd_build
    prod = mplcd_build(ex["components"], ex["base"], ex["scalars"])
    path = tmp_path / "g.txt"
    path.write_text(prod.G.to_text())
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert ("n=16 k=4 hull=0 LCD=true d=12 d_status=exact "
            "class=almost_MDS") in out

    ident = tmp_path / "i.txt"
    ident.write_text(MatrixFq.identity(field_create(2), 3).to_text())
    code, out = run(capsys, "verify", str(ident))
    assert code == 0 and "LCD=true d=1" in out

    rep = tmp_path / "r.txt"
    rep.write_text("2 1 2\n1 1\n")
    code, out = run(capsys, "verify", str(rep))
    assert code == 0 and "LCD=false" in out and "hull=1" in out


def test_verify_bad_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("7 2 2\n1 2\n")
    assert main(["verify", str(bad)]) == 1
    assert main(["verify", str(tmp_path / "missing.txt")]) == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--field", "3"])    # missing --n
    assert exc.value.code == 2
    assert main(["search", "--field", "3", "--n", "4", "--k", "2",
                 "--target-d", "0"]) == 2


@pytest.mark.parametrize("argv, option", [
    (["order", "--field", "3", "--n", "4"], ["--seed", "1"]),
    (["order", "--field", "3", "--n", "4"], ["--store", "s.jsonl"]),
    (["sample", "--field", "7", "--n", "3"], ["--store", "s.jsonl"]),
    (["extend", "m.txt"], ["--seed", "1"]),
    (["product", "--base", "b.txt", "--scalars", "1", "--components",
      "c.txt"], ["--seed", "1"]),
    (["project", "m.txt"], ["--seed", "1"]),
    (["rs-pipeline", "--field", "16", "--n", "15", "--k", "7"],
     ["--seed", "1"]),
], ids=["order-seed", "order-store", "sample-store", "extend-seed",
        "product-seed", "project-seed", "rs-pipeline-seed"])
def test_option_a_verb_never_reads_is_a_usage_error(capsys, argv, option):
    # argparse stops at the option before any named file is read
    with pytest.raises(SystemExit) as exc:
        main(argv + option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in \
        capsys.readouterr().err


def test_k_above_n_is_a_usage_error(capsys):
    assert main(["search", "--field", "7", "--n", "3", "--k", "5",
                 "--target-d", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lcdkit: ") and err.count("\n") == 1
    assert "--k 5 exceeds --n 3" in err


def test_search_k_zero_is_a_usage_error(capsys):
    assert main(["search", "--field", "7", "--n", "3", "--k", "0",
                 "--target-d", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "lcdkit: --k must be positive\n"


@pytest.mark.parametrize("argv", [
    ["order", "--field", "3", "--n", "0"],
    ["order", "--field", "3", "--n", "-1"],
    ["sample", "--field", "7", "--n", "0"],
    ["sample", "--field", "7", "--n", "-1"],
    ["search", "--field", "7", "--n", "0", "--k", "1", "--target-d", "1"],
    ["rs-pipeline", "--field", "16", "--n", "0", "--k", "0"],
], ids=["order-0", "order-neg", "sample-0", "sample-neg", "search-0",
        "rs-pipeline-0"])
def test_nonpositive_n_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "lcdkit: --n must be positive\n"


def test_verify_non_integer_entry_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("7 1 3\n1 x 2\n")
    assert main(["verify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lcdkit: ") and err.count("\n") == 1
    assert "non-integer entry" in err and "Traceback" not in err


@pytest.mark.parametrize("option", ["--lambdas", "--pair"])
def test_extend_non_integer_option_is_a_usage_error(tmp_path, capsys,
                                                    option):
    src = tmp_path / "c.txt"
    src.write_text("5 1 4\n1 2 3 4\n")
    assert main(["extend", str(src), option, "1,x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lcdkit: ") and err.count("\n") == 1
    assert f"{option} wants comma-separated integers" in err


# field degrees below the least a header may name
BAD_HEADER_FIELDS = {"degree_zero": "2^0", "degree_negative": "2^-1",
                     "tower_over_itself": "3/3",
                     "tower_degree_one": "3^1/3",
                     "extension_tower_over_itself": "4/4"}


def _malformed_value_args(tmp_path):
    """The malformed-value commands, keyed by case name."""
    bad = tmp_path / "g7.txt"
    bad.write_text("7 1 3\n1 9 2\n")
    headers = {}
    for case, desc in BAD_HEADER_FIELDS.items():
        path = tmp_path / f"{case}.txt"
        path.write_text(f"{desc} 1 2\n1 1\n")
        headers[case] = ["verify", str(path)]
    g5 = tmp_path / "g5.txt"
    g5.write_text("5 2 4\n1 0 1 0\n0 1 0 1\n")   # Gram 2 I: LCD
    g4 = tmp_path / "g4.txt"
    g4.write_text(MatrixFq.from_rows(field_create(2, 2),
                                     [[1, 2, 3, 1]]).to_text())
    ex = product_example()
    base = tmp_path / "base.txt"
    base.write_text(ex["base"].to_text())
    comps = []
    for i, c in enumerate(ex["components"]):
        p = tmp_path / f"c{i}.txt"
        p.write_text(c.G.to_text())
        comps.append(str(p))
    product = ["product", "--base", str(base), "--components",
               ",".join(comps)]
    return {
        "entry_outside_field": ["verify", str(bad)],
        "lambda_count": ["extend", str(g5), "--lambdas", "1,2,3"],
        "lambda_outside_field": ["extend", str(g5), "--lambdas", "1,9"],
        "basis_outside_field": ["project", str(g4), "--basis", "99,1"],
        "scalar_outside_field": product + ["--scalars", "1,13,1,1"],
        "one_entry_block": product + ["--scalars", "2,3,6,4",
                                      "--blocks", "1;2,3"],
        **headers,
    }


@pytest.mark.parametrize("case", [
    "entry_outside_field", "lambda_count", "lambda_outside_field",
    "basis_outside_field", "scalar_outside_field", "one_entry_block",
    *BAD_HEADER_FIELDS])
def test_malformed_value_exits_1(tmp_path, capsys, case):
    assert main(_malformed_value_args(tmp_path)[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lcdkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sample_deterministic(capsys):
    code, first = run(capsys, "sample", "--field", "7", "--n", "4",
                      "--seed", "5")
    assert code == 0
    M = MatrixFq.from_text(first)
    assert M.is_orthogonal()
    code, second = run(capsys, "sample", "--field", "7", "--n", "4",
                       "--seed", "5")
    assert first == second


def test_search_writes_store(tmp_path, capsys):
    store = tmp_path / "s.jsonl"
    code, out = run(capsys, "search", "--field", "7", "--n", "6", "--k",
                    "2", "--target-d", "5", "--store", str(store))
    assert code == 0
    assert "[6,2,5]_F7" in out
    rec = json.loads(store.read_text().splitlines()[0])
    assert (rec["n"], rec["k"], rec["d"]) == (6, 2, 5)


def test_search_malformed_store_exits_1(tmp_path, capsys):
    store = tmp_path / "bad.jsonl"
    store.write_text("5\n")
    assert main(["search", "--field", "7", "--n", "6", "--k", "2",
                 "--target-d", "5", "--store", str(store)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lcdkit: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_search_miss_exits_1(capsys):
    code, out = run(capsys, "search", "--field", "2", "--n", "4", "--k",
                    "2", "--target-d", "4", "--budget", "30")
    assert code == 1
    assert "no [4,2,>=4]" in out


def test_tables_1_all_match(capsys):
    code, out = run(capsys, "tables", "1")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("n=")]
    assert len(lines) == 6
    assert all(ln.endswith("match") for ln in lines)


def test_tables_2_and_3(tmp_path, capsys):
    store = tmp_path / "t.jsonl"
    code, out = run(capsys, "tables", "2", "--store", str(store))
    assert code == 0
    for target in ("[6,2,5]_F7", "[8,4,4]_F4", "[5,3,3]_F11"):
        assert target in out
    code, out = run(capsys, "tables", "3", "--store", str(store))
    assert code == 0
    assert "match" in out
    keys = {(json.loads(l)["n"], json.loads(l)["k"])
            for l in store.read_text().splitlines()}
    assert (16, 4) in keys and (6, 2) in keys


def test_extend_and_grow(tmp_path, capsys):
    from lcdkit import generator_set, lcd_from_rows, random_orthogonal
    F5 = field_create(5)
    A = random_orthogonal(generator_set(F5, 4), 48, 2)
    src = tmp_path / "c.txt"
    src.write_text(lcd_from_rows(A, [0, 1]).G.to_text())
    store = tmp_path / "e.jsonl"
    code, out = run(capsys, "extend", str(src), "--lambdas", "2,3",
                    "--store", str(store))
    assert code == 0 and "[6,2," in out
    code, out = run(capsys, "extend", str(src), "--grow",
                    "--store", str(store))
    assert code == 0 and "[6,3," in out
    recs = [json.loads(l) for l in store.read_text().splitlines()]
    assert {r["tag"] for r in recs} == {"extended"}


def test_product_verb(tmp_path, capsys):
    ex = product_example()
    base = tmp_path / "base.txt"
    base.write_text(ex["base"].to_text())
    comp_paths = []
    for i, c in enumerate(ex["components"]):
        p = tmp_path / f"c{i}.txt"
        p.write_text(c.G.to_text())
        comp_paths.append(str(p))
    code, out = run(capsys, "product", "--base", str(base), "--scalars",
                    "2,3,6,4", "--components", ",".join(comp_paths))
    assert code == 0
    assert "[16,4,12]_F11" in out


def test_project_verb(tmp_path, capsys):
    F4 = field_create(2, 2)
    src = tmp_path / "c4.txt"
    src.write_text(MatrixFq.from_rows(F4, [[1, 2, 3, 1]]).to_text())
    code, out = run(capsys, "project", str(src))
    assert code == 0
    assert "[8,2," in out and "_F2" in out
    # no self-dual basis over GF(9)/GF(3)
    F9 = field_create(3, 2)
    src9 = tmp_path / "c9.txt"
    src9.write_text(MatrixFq.from_rows(F9, [[1, 2]]).to_text())
    code, out = run(capsys, "project", str(src9))
    assert code == 1
    assert "no self-dual basis" in out


def test_rs_pipeline_verb(capsys):
    code, out = run(capsys, "rs-pipeline", "--field", "3^2", "--n", "8",
                    "--k", "3")
    assert code == 0
    for line in ("[5,1,5]_F9", "[5,2,4]_F9", "[5,3,3]_F9"):
        assert line in out


def test_store_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["tables", "2", "--store", str(path)]) == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # re-running against an existing store changes nothing
    assert main(["tables", "2", "--store", str(a)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
