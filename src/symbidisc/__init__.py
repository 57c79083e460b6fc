"""Numerical operator theory on the symmetrized bidisc.

Verifies spectral-set membership of commuting matrix pairs, solves the
fundamental equation on defect spaces, constructs and classifies
determinantal varieties, builds truncated dilation models, and certifies
a von Neumann-type inequality on variety boundaries.
"""

from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    numerical_radius,
    operator_norm,
    spectral_radius,
)
from .geometry import (
    REGION_TAGS,
    GammaPoint,
    RegionTag,
    classify_point,
    classify_points,
)
from .gamma_pairs import (
    DefectData,
    OperatorPair,
    PairVerdict,
    check_gamma_contraction,
    check_gamma_isometry,
    check_pure,
    defect_operator,
    make_operator_pair,
    symmetrize_pair,
)
from .fundamental import (
    FundamentalBoundError,
    FundamentalOperator,
    ResidualTooLargeError,
    solve_fundamental,
    truncated_model_from_F,
)
from .varieties import (
    BivarPolynomial,
    DeterminantalVariety,
    DistinguishedStatus,
    DistinguishedVerdict,
    boundary_sample,
    classify_distinguished,
    fiber_at_p,
    symmetrize_bidisc_variety,
    variety_membership,
)
from .von_neumann import (
    MatrixPolynomial,
    VNReport,
    evaluate_pair,
    lambda_variety,
    vn_report,
)
from .model_theory import (
    DilationReport,
    TruncatedModel,
    build_model,
    dilation_check,
)

__version__ = "0.1.0"
