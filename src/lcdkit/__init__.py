"""Toolkit for linear complementary dual codes over finite fields.

A code is LCD when it meets its dual trivially, which for a generator
matrix G happens exactly when det(G G^T) != 0.  The package builds such
codes from rows of orthogonal matrices (sampled through a small
generating set), extends them two columns at a time through isotropic
pairs, combines them into matrix-product codes, moves them between a
field tower and its base through self-dual bases, and derives MDS LCD
codes from self-orthogonal cyclic ones.  Everything is exact integer
arithmetic; every randomized result carries enough provenance to be
replayed byte for byte.
"""

from .codes import (
    EXACT,
    LOWER_BOUND,
    CodeRecord,
    DistanceResult,
    LinearCode,
    RecordStore,
)
from .construct import (
    apply_row_scaling,
    apply_rotation_blocks,
    cyclic_mds_self_orthogonal,
    extend_by_two,
    extend_dimension,
    lcd_from_rows,
    matrix_product_code,
    matrix_product_generator,
    mds_lcd_from_self_orthogonal,
    mplcd_build,
    project_to_subfield,
    replay_record,
    rs_pipeline,
    search_random_lcd,
    systematic_parity_part,
)
from .gf import FieldCtx, field_create, parse_field, tower_create
from .matfq import MatrixFq
from .orthogen import (
    OrthoGenSet,
    classical_orthogonal_order,
    generator_set,
    group_closure_order,
    random_orthogonal,
    random_walk,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "LOWER_BOUND",
    "CodeRecord",
    "DistanceResult",
    "FieldCtx",
    "LinearCode",
    "MatrixFq",
    "OrthoGenSet",
    "RecordStore",
    "apply_row_scaling",
    "apply_rotation_blocks",
    "classical_orthogonal_order",
    "cyclic_mds_self_orthogonal",
    "extend_by_two",
    "extend_dimension",
    "field_create",
    "generator_set",
    "group_closure_order",
    "lcd_from_rows",
    "matrix_product_code",
    "matrix_product_generator",
    "mds_lcd_from_self_orthogonal",
    "mplcd_build",
    "parse_field",
    "project_to_subfield",
    "random_orthogonal",
    "random_walk",
    "replay_record",
    "rs_pipeline",
    "search_random_lcd",
    "systematic_parity_part",
    "tower_create",
    "__version__",
]
