"""Re-importing lcdkit frees the modules it replaces.

The bench re-imports the package before each run; a module-level object
that some global cache keeps (a typing subscript of a package class, say)
would keep every earlier copy alive and skew its memory and set-up time.
"""

import os
import subprocess
import sys
from pathlib import Path

import lcdkit

REIMPORT = """
import gc, importlib, sys
for _ in range(3):
    for name in [m for m in sys.modules
                 if m == "lcdkit" or m.startswith("lcdkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lcdkit")
    ctx = pkg.parse_field("16")
    ctx.tables()
    pkg.generator_set(ctx, 5).matrices()
    # fills the per-field tables that the column walks and the sampler cache
    pkg.codes._every_column_subset_independent(
        ctx, pkg.MatrixFq.identity(ctx, 3).rows())
    pkg.random_orthogonal(ctx, 4, 1)
gc.collect()
print(sum(isinstance(o, type) and o.__name__ == "FieldCtx"
          and o.__module__ == "lcdkit.gf" for o in gc.get_objects()))
"""


def test_reimport_leaves_one_field_class():
    src = str(Path(lcdkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
