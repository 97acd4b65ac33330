"""Numerical laboratory for weighted frame families over finite atomic
measure spaces: support-uncertainty inequalities, a constructor zoo, and
exact sparse recovery by count or by measure."""

from .frames import (
    COMPLEX,
    CUE_TOLERANCE,
    REAL,
    SUPPORT_EPS,
    VALIDATION_GUARD,
    VALIDATION_TOL,
    CoefficientFunction,
    DegeneratePairError,
    ExtremalReport,
    FrameError,
    MeasureSpace,
    PSchauderFrame,
    ResourceGuardError,
    UncertaintyReport,
    ValidationReport,
    analysis,
    counting_measure,
    cross_coherence,
    extremal_search,
    random_vectors,
    support_measure,
    synthesis,
    uncertainty_batch,
    uncertainty_check,
    validate_frame,
)
from .frame_io import (
    frame_digest,
    frame_from_obj,
    frame_json,
    frame_to_obj,
    load_frame,
    save_frame,
)
from .sparse import (
    ENUMERATION_GUARD,
    INFEASIBLE,
    PLAN_GUARD,
    SOLVED,
    RecoveryReport,
    SparseProblem,
    SparseSolution,
    conjecture_probe,
    donoho_elad_check,
    gram_coherence,
    l0_brute_force,
    measure_min_brute_force,
    uniqueness_threshold,
)
from .zoo import (
    FRAME_KINDS,
    FrameSpec,
    alternate_dual,
    build_frames,
    canonical_lp,
    default_specs,
    default_zoo,
    dft_pair,
    harmonic_discretization,
    mercedes_benz,
    picket_fence,
    random_parseval,
    signed_permutation,
    weighted_split,
)

__version__ = "0.1.0"
