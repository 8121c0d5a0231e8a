"""Arithmetic of quartic del Pezzo surfaces with an order-4 Brauer group.

Local solubility over every completion of Q, invariant maps of the three
nontrivial 2-torsion classes, Brauer-Manin obstruction verdicts, and rational
point search for the explicit families; the order-4 criterion for arbitrary
pencils of quadrics in five variables.
"""

from .arith import (
    BudgetExceeded,
    FactorBudgetExceeded,
    InsufficientPrecisionError,
    PadicScalar,
    Place,
    PLACE_INF,
    SquareClass,
    factor,
    hilbert_symbol,
    is_prime,
    legendre,
    sqrt_mod,
    square_class,
)
from .quadform import (
    GeneralSurface,
    NormalFormSurface,
    SubfamilySurface,
    check_normal_form,
    check_subfamily,
    collapse_triple,
    degenerate_members,
    discriminant_quintic,
    epsilon_T,
    subfamily_to_normal_form,
    to_matrices,
    order4_test,
)
from .localsolve import (
    PadicApproxPoint,
    SolubilityVerdict,
    decide_Qq,
    decide_R,
    everywhere_locally_soluble,
    everywhere_locally_soluble_general,
    lift_certificate,
    newton_refine,
    sample_local_points,
)
from .brauer import (
    CLASS_TAGS,
    ObstructionReport,
    bm_verdict,
    evaluate_invariant,
    invariant_image,
    quadres_counts,
    quadres_witness,
    reciprocity_check,
    surjectivity_witness,
)
from .families import (
    make_S,
    make_Y,
    point_search,
    predict_S,
    predict_Y,
    s_from_t,
)
from .census import CensusResult, CensusRow, census_S, census_Y

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
