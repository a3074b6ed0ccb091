"""Tilings of cyclic groups: exact verification, cyclotomic divisibility,
structure detection, fiber-shift reductions, and classification."""

__version__ = "0.1.0"

from .zm import Modulus, euler_phi, factorize
from .multiset import Multiset
from .cyclo import (
    CycloPoly,
    CycloSpectrum,
    cyclotomic,
    phi_divides,
    s_a,
    spectrum,
    standard_complement,
    standard_complement_of,
    t1_check,
    t2_check,
)
from .tiling import (
    TilingInstance,
    box_product_sweep_is_one,
    box_table,
    div_set,
    verify_direct,
    verify_poly,
    verify_sands,
)
from .cuboid import (
    CuboidType,
    is_t_null,
    n_cuboid_type,
    phi_divides_via_cuboids,
)
from .structure import (
    StructureFinding,
    classify_unfibered_grid,
    detect_corner,
    detect_diagonal_boxes,
    detect_extended_corner,
    grid_fiber_report,
    ijk_partition,
    plane_bound_check,
    remove_fibers,
)
from .reduce import (
    ClassificationReport,
    ReductionTrace,
    ShiftMove,
    classify,
    detect_cofibered,
    fiber_shift,
    reduce_to_grid,
    slab_extract,
    subgroup_reduction_applies,
    subtile_condition,
)
from .search import EnumerationTask, enumerate_tilings, find_complements

__all__ = [name for name in dir() if not name.startswith("_")]
