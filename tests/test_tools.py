"""Smoke tests for the scripts under tools/."""

import importlib.util
import re
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    """Import tools/<name>.py as a module, keeping sys.path as it was."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(f"tools_{name}",
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_search_funnel_totals_on_seed_42(capsys):
    # the funnel wraps private names of orthogen, construct and codes; the
    # totals are deterministic and are the figures ROADMAP cites for seed
    # 42: the MDS kernel decides the subsets that the Singleton certificate
    # decided before, and one distance call checks each of its 1021 hits
    funnel = _load("search_funnel")
    assert funnel.main(["--seeds", "42"]) == 0
    rows = capsys.readouterr().out.splitlines()
    total = [cell.strip() for cell in rows[-1].split("|")[1:-1]]
    assert total[:-1] == ["total", "1036", "2263", "1142", "9732", "13241",
                          "5412", "14534", "1021/3921", "1021"]


def test_readme_layout_names_every_tool():
    # the tools/ entry of README's Layout block names exactly the scripts
    # under tools/, so adding or deleting one cannot leave it stale
    readme = (TOOLS.parent / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    entry = re.search(r"^tools/.*?(?=^\S|\Z)", block, re.M | re.S).group()
    assert (sorted(re.findall(r"(\w+\.py):", entry))
            == sorted(path.name for path in TOOLS.glob("*.py")))
