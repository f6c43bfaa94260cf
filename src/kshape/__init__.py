"""k-shapes: the poset, tableau charges, the pushout algorithm, and the
weak bijection, with exhaustive desk-scale verification."""

from .classical import classical_charge
from .errors import IntegrityError
from .partitions import (
    Cell,
    Partition,
    addable_corners,
    boundary_size,
    col_shape,
    conjugate,
    diag,
    diag_count,
    format_partition,
    is_p_core,
    k_interior,
    parse_partition,
    partition,
    removable_corners,
    residue,
    row_shape,
)
from .poset import (
    Move,
    Path,
    StringOfCells,
    classify_string,
    enumerate_moves,
    enumerate_paths,
    equivalence_classes,
    is_k_shape,
    kshapes_of_size,
    move_charge,
    move_cocharge,
    path_class_groups,
    poset_dot,
)
from .weak_tableaux import (
    ChainTableau,
    WeakTableau,
    charge_any_weight,
    charge_dominant_semistandard,
    charge_standard,
    cocharge_standard,
    enumerate_standard_k_tableaux,
    enumerate_weak_tableaux,
    kostka_k,
    make_weak_tableau,
    parse_tableau_text,
    sigma_involution,
)
from .kshape_tableaux import (
    chain_characterization,
    charge_cocharge_residual,
    charge_kshape,
    cocharge_kshape,
    connected_rows,
    cover_status,
    enumerate_kshape_tableaux,
    make_cover,
    make_kshape_tableau,
)
from .pushout import (
    DescentRecord,
    PushoutSquare,
    WeakBijectionResult,
    descend,
    full_descent,
    maximal_pushout,
    maximize_above,
    maximize_below,
    push_cover_through_path,
    weak_bijection_standard,
)
from .tpoly import TPoly
from .verify import VerificationReport, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
